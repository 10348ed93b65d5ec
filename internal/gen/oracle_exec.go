package gen

import (
	"fmt"
	"math"
	"sort"

	"autopart/internal/apps/apputil"
	"autopart/internal/diag"
	"autopart/internal/exec"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/pkg/autopart"
)

// The execution oracle runs every generated program that compiles three
// ways and demands bit-identical region data:
//
//   - mTrue: the true-sequential interpreter (ir.Machine.RunSequential),
//     which interleaves every statement in loop order — the semantics
//     the paper's compiler promises to preserve;
//   - mRef: the sequential parallel-semantics executor
//     (exec.RunSequentialReference), which snapshots reads at launch
//     entry and folds uncentered reductions through buffers;
//   - mDist: the distributed executor (exec.Run) over in-process
//     message-passing nodes.
//
// mTrue ≠ mRef means the inference/solver pipeline accepted a loop whose
// parallel semantics differ from sequential semantics — a soundness
// bug. mRef ≠ mDist means the distributed executor mis-ships data — an
// executor bug. The rewrite executor additionally containment-checks
// every access against the solved partitions, so a solver validity bug
// surfaces here as a launch abort rather than silent corruption.
//
// The mRef-vs-mDist comparison is bit-exact. The mTrue-vs-mRef
// comparison allows reassocULP of float slack on scalar fields because
// reduction buffering legitimately reassociates float sums (see
// reassocULP below); everything else is exact there too.

// ExecVerdict classifies one scenario's trip through the oracle.
type ExecVerdict int

// Exec oracle verdicts.
const (
	// ExecOK: compiled, ran, all three executions agree.
	ExecOK ExecVerdict = iota
	// ExecRejected: the compiler rejected the program with a coded
	// diagnostic. Not a failure — the generator deliberately emits a
	// small rate of role violations to exercise rejection paths.
	ExecRejected
	// ExecDivergence: executions disagree, or an execution failed in a
	// way the others did not. Always a bug.
	ExecDivergence
)

// ExecReport is the outcome of the execution oracle on one scenario.
type ExecReport struct {
	Verdict ExecVerdict
	// Code is the diagnostic code for ExecRejected.
	Code string
	// Class partitions divergences for shrinking and triage:
	// "true-vs-ref", "ref-vs-dist", "run-error", "instantiate-error".
	Class  string
	Detail string
}

func (r *ExecReport) String() string {
	switch r.Verdict {
	case ExecOK:
		return "ok"
	case ExecRejected:
		return "rejected " + r.Code
	default:
		return fmt.Sprintf("DIVERGENCE [%s]: %s", r.Class, r.Detail)
	}
}

// Failed reports whether the oracle found a bug.
func (r *ExecReport) Failed() bool { return r.Verdict == ExecDivergence }

// RunExecOracle compiles and differentially executes one scenario.
func RunExecOracle(sc *Scenario) *ExecReport {
	c, err := autopart.Compile(sc.Src, autopart.Options{})
	if err != nil {
		return &ExecReport{Verdict: ExecRejected, Code: diag.From(err, "X000").Code, Detail: err.Error()}
	}
	if len(c.Parallel) != len(c.Loops) {
		return &ExecReport{
			Verdict: ExecDivergence, Class: "instantiate-error",
			Detail: fmt.Sprintf("compiler parallelized %d of %d loops without a diagnostic", len(c.Parallel), len(c.Loops)),
		}
	}

	m, external, owners, err := BuildMachine(sc.Prog, sc.Spec)
	if err != nil {
		return &ExecReport{Verdict: ExecDivergence, Class: "instantiate-error", Detail: err.Error()}
	}
	auto, err := apputil.InstantiateAuto(c, m, sc.Spec.Nodes, external)
	if err != nil {
		return &ExecReport{Verdict: ExecDivergence, Class: "instantiate-error", Detail: err.Error()}
	}

	// True-sequential execution on a private clone of the initial data.
	mTrue := m.Clone()
	var trueErr error
	for s := 0; s < sc.Spec.Steps && trueErr == nil; s++ {
		trueErr = c.RunSequential(mTrue)
	}

	prog := &exec.Program{Machine: m, Plan: auto.Plan, Parts: auto.Parts, Owners: owners}
	mRef, refErr := exec.RunSequentialReference(prog, sc.Spec.Steps)

	// A program the compiler accepted must run identically under both
	// sequential semantics — including whether it runs at all. The
	// generator's guard discipline makes runtime errors unreachable for
	// valid programs, so any error here is a finding, not noise.
	if trueErr != nil || refErr != nil {
		if trueErr != nil && refErr != nil {
			// Both semantics trap, so they still agree; kept as its own
			// class so shrinking an asymmetric failure cannot drift here.
			return &ExecReport{
				Verdict: ExecDivergence, Class: "run-error-both",
				Detail: fmt.Sprintf("both sequential executions fail: true=%v ref=%v", trueErr, refErr),
			}
		}
		return &ExecReport{
			Verdict: ExecDivergence, Class: "run-error",
			Detail: fmt.Sprintf("one sequential execution fails: true=%v ref=%v", trueErr, refErr),
		}
	}

	if diff := diffMachinesULP(mTrue, mRef, reassocULP); diff != "" {
		return &ExecReport{Verdict: ExecDivergence, Class: "true-vs-ref", Detail: diff}
	}

	res, err := exec.Run(prog, exec.Config{Nodes: sc.Spec.Nodes, Steps: sc.Spec.Steps})
	if err != nil {
		return &ExecReport{Verdict: ExecDivergence, Class: "ref-vs-dist", Detail: "distributed run failed: " + err.Error()}
	}
	if diff := diffMachines(mRef, res.Machine); diff != "" {
		return &ExecReport{Verdict: ExecDivergence, Class: "ref-vs-dist", Detail: diff}
	}
	return &ExecReport{Verdict: ExecOK}
}

// diffMachines compares all region data of two machines; empty means
// bit-identical.
func diffMachines(a, b *ir.Machine) string {
	names := make([]string, 0, len(a.Regions))
	for name := range a.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br, ok := b.Regions[name]
		if !ok {
			return fmt.Sprintf("region %s missing", name)
		}
		if same, diff := a.Regions[name].SameData(br); !same {
			return fmt.Sprintf("region %s: %s", name, diff)
		}
	}
	return ""
}

// reassocULP is the float slack for the true-vs-ref comparison only.
// Launch semantics fold buffered reduction contributions in a different
// association order than strict program order, and float + is not
// associative — that reordering is exactly what the paper's parallel
// reduction semantics licenses, so it is not a finding. At the
// generator's extents (≤24 elements, ≤2 steps) legitimate reassociation
// drift stays within a couple of ULPs; real logic bugs produce wholly
// different values (the relaxation and fold-routing bugs diverged in
// the integer part). ref-vs-dist stays bit-exact: the distributed
// executor is required to reproduce the reference's fold order.
const reassocULP = 4

// diffMachinesULP is diffMachines with reassocULP of slack on scalar
// fields; index and range fields stay exact.
func diffMachinesULP(a, b *ir.Machine, maxULP int64) string {
	names := make([]string, 0, len(a.Regions))
	for name := range a.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br, ok := b.Regions[name]
		if !ok {
			return fmt.Sprintf("region %s missing", name)
		}
		ar := a.Regions[name]
		if ar.Size() != br.Size() {
			return fmt.Sprintf("region %s: size %d vs %d", name, ar.Size(), br.Size())
		}
		for _, field := range ar.FieldNames() {
			kind, _ := ar.FieldKindOf(field)
			if !br.HasField(field) {
				return fmt.Sprintf("region %s: missing field %s", name, field)
			}
			switch kind {
			case region.ScalarField:
				av, bv := ar.Scalar(field), br.Scalar(field)
				for i := range av {
					if !withinULP(av[i], bv[i], maxULP) {
						return fmt.Sprintf("region %s: %s.%s[%d]: %v vs %v", name, name, field, i, av[i], bv[i])
					}
				}
			case region.IndexField:
				av, bv := ar.Index(field), br.Index(field)
				for i := range av {
					if av[i] != bv[i] {
						return fmt.Sprintf("region %s: %s.%s[%d]: %v vs %v", name, name, field, i, av[i], bv[i])
					}
				}
			case region.RangeField:
				av, bv := ar.Ranges(field), br.Ranges(field)
				for i := range av {
					if av[i] != bv[i] {
						return fmt.Sprintf("region %s: %s.%s[%d]: %v vs %v", name, name, field, i, av[i], bv[i])
					}
				}
			}
		}
	}
	return ""
}

// withinULP reports whether two float64s are equal or separated by at
// most maxULP representable values. NaN never matches anything, and
// opposite signs only match at ±0.
func withinULP(x, y float64, maxULP int64) bool {
	if x == y {
		return true
	}
	if math.IsNaN(x) || math.IsNaN(y) {
		return false
	}
	if math.Signbit(x) != math.Signbit(y) {
		return false
	}
	ux, uy := int64(math.Float64bits(x)), int64(math.Float64bits(y))
	d := ux - uy
	if d < 0 {
		d = -d
	}
	return d <= maxULP
}
