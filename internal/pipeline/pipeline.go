// Package pipeline stages the auto-partitioning compiler as an explicit
// sequence of passes over a shared Session, replacing the former
// monolithic pkg/autopart.Compile body. Each phase of the paper —
// inference (§2), solving (§3), optimization (§5) — is a named Pass in a
// registry; observers receive per-pass wall time and artifact metrics,
// and every failure is recorded as a structured diagnostic
// (internal/diag) before it propagates. New passes (additional lemmas,
// caching layers, alternative solvers) drop in by registering a name and
// splicing it into the order.
package pipeline

import (
	"fmt"
	"time"

	"autopart/internal/constraint"
	"autopart/internal/diag"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/optimize"
	"autopart/internal/rewrite"
	"autopart/internal/solver"
)

// Config holds the compilation options the passes consult.
type Config struct {
	// DisableRelaxation turns off the §5.1 disjointness relaxation.
	DisableRelaxation bool
	// DisablePrivateSubPartitions turns off the §5.2 optimization.
	DisablePrivateSubPartitions bool
	// SolverCache, when set, is the shared cross-compile memo cache the
	// solve pass injects into every solver it constructs. Nil keeps the
	// solver's private per-compile cache (identical verdicts either way;
	// sharing only changes how fast they are reached).
	SolverCache *solver.MemoCache
	// Incremental makes the frontend passes diff the source against the
	// session's retained artifacts from its previous successful compile,
	// reusing the AST, IR, and inference results of unedited loops (see
	// incremental.go). Output is byte-identical to a cold compile; only
	// the work performed changes. Requires compiling related sources on
	// the same Session (Reset preserves the retained state).
	Incremental bool
}

// Session carries the source, options, and per-pass artifacts of one
// compilation through the pipeline. Passes read the artifacts of their
// predecessors and fill in their own; the zero value of every artifact
// means "not produced yet".
type Session struct {
	// Source is the DSL source text.
	Source string
	// File is the display name used when rendering diagnostics
	// ("<input>" when unset).
	File string
	// Config are the compilation options.
	Config Config

	// Program is the parsed AST (parse pass).
	Program *lang.Program
	// Loops is the normalized IR (normalize pass).
	Loops []*ir.Loop
	// Inference holds the per-loop constraint systems (infer pass).
	Inference []*infer.Result
	// External is the assumption system from externs/asserts (infer pass).
	External *constraint.System
	// ExternalSyms are the extern partition symbols (infer pass).
	ExternalSyms []string
	// Plans pair each loop with its possibly-relaxed system (relax pass).
	Plans []*optimize.LoopPlan
	// Solution is the solved DPL program (solve pass).
	Solution *solver.Solution
	// Private holds §5.2 private sub-partitions (private pass; may stay
	// nil).
	Private *optimize.PrivatePlan
	// Parallel is the rewritten launch structure (rewrite pass).
	Parallel []*rewrite.ParallelLoop

	// Diags accumulates structured diagnostics; a failed pass always
	// appends one before the error propagates.
	Diags []diag.Diagnostic

	// Incr is the artifact set retained from this session's previous
	// successful incremental compile; nil means the next incremental
	// compile starts cold. It is the only field Reset preserves.
	Incr *IncrState
	// Seg is the source segmentation (incremental parse pass only).
	Seg *lang.Segmented
	// claimed maps each loop index to the retained artifact reused for
	// it; nil entries are dirty loops. Nil slice means no diff happened
	// (cold or non-incremental compile).
	claimed []*loopArtifact
	// symSpans records each loop's symbol base and count (incremental
	// infer pass), the validity condition for future inference reuse.
	symSpans []symSpan
	// incrCold flags an incremental compile that fell back to the full
	// cold frontend; incrReused* count artifact reuses for Metrics.
	incrCold      bool
	incrReusedAST int
	incrReusedIR  int
	incrReusedInf int
}

// NewSession prepares a session for source text.
func NewSession(src string, cfg Config) *Session {
	return &Session{Source: src, File: "<input>", Config: cfg}
}

// Reset reinitializes the session for a new compilation, dropping every
// artifact and diagnostic. A Service resets each keyed incremental
// session before recompiling it. The retained incremental state
// survives Reset — it describes the last successful compile, which is
// exactly what the next incremental compile diffs against (stale state
// is rejected by its fingerprints, so carrying it across unrelated
// sources is safe, just useless).
func (s *Session) Reset(src string, cfg Config) {
	incr := s.Incr
	*s = Session{Source: src, File: "<input>", Config: cfg, Incr: incr}
}

// Metrics snapshots artifact sizes and counts for observability: loops,
// constraint and access counts, DPL statement counts, launches, and
// accumulated diagnostics. Only artifacts that exist contribute keys, so
// a pass's event reports exactly what the pipeline has built so far.
func (s *Session) Metrics() map[string]int {
	m := map[string]int{}
	if s.Program != nil {
		m["regions"] = len(s.Program.Regions)
		m["source_loops"] = len(s.Program.Loops)
		m["externs"] = len(s.Program.Externs)
		m["asserts"] = len(s.Program.Asserts)
	}
	if s.Loops != nil {
		m["loops"] = len(s.Loops)
	}
	if s.Inference != nil {
		preds, subsets, accesses := 0, 0, 0
		for _, r := range s.Inference {
			preds += len(r.Sys.Preds)
			subsets += len(r.Sys.Subsets)
			accesses += len(r.Accesses)
		}
		m["constraints"] = preds + subsets
		m["accesses"] = accesses
	}
	if s.External != nil {
		m["external_constraints"] = len(s.External.Preds) + len(s.External.Subsets)
	}
	if s.Plans != nil {
		relaxed := 0
		for _, p := range s.Plans {
			if p.Relaxed {
				relaxed++
			}
		}
		m["relaxed_loops"] = relaxed
	}
	if s.Solution != nil {
		m["partitions"] = len(s.Solution.Program.Stmts)
		m["obligations"] = len(s.Solution.System.Preds) + len(s.Solution.System.Subsets)
		m["solver_closed_hits"] = s.Solution.Stats.ClosedHits
		m["solver_closed_misses"] = s.Solution.Stats.ClosedMisses
		m["solver_node_hits"] = s.Solution.Stats.NodeHits
		m["solver_nodes"] = s.Solution.Stats.Nodes
		m["solver_unify_us"] = int(s.Solution.Stats.UnifyNS / 1000)
		m["solver_graph_builds"] = s.Solution.Stats.GraphBuilds
		m["solver_graph_extends"] = s.Solution.Stats.GraphExtends
	}
	if s.Private != nil {
		m["private_subpartitions"] = len(s.Private.Extra.Stmts)
	}
	if s.Parallel != nil {
		m["launches"] = len(s.Parallel)
	}
	if s.Config.Incremental {
		if s.incrCold {
			m["incr_cold"] = 1
		} else {
			m["incr_cold"] = 0
		}
		m["incr_clean_loops"] = s.incrReusedAST
		if s.Program != nil {
			m["incr_dirty_loops"] = len(s.Program.Loops) - s.incrReusedAST
		}
		m["incr_reused_ir"] = s.incrReusedIR
		m["incr_reused_infer"] = s.incrReusedInf
	}
	m["diags"] = len(s.Diags)
	return m
}

// Pass is one stage of the compiler.
type Pass interface {
	// Name is the registry key and the name reported to observers.
	Name() string
	// Run executes the pass over the session.
	Run(*Session) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	run  func(*Session) error
}

func (p passFunc) Name() string         { return p.name }
func (p passFunc) Run(s *Session) error { return p.run(s) }

// NewPass wraps a function as a named Pass.
func NewPass(name string, run func(*Session) error) Pass {
	return passFunc{name: name, run: run}
}

// registry maps pass names to implementations. DefaultOrder lists the
// standard compilation sequence; both are fixed at init time and
// extended via Register.
var registry = map[string]Pass{}

// DefaultOrder is the standard pass sequence of the compiler, mirroring
// the paper: frontend (parse, check, normalize), inference (§2), the
// §5.1 relaxation, unification + solving (§3), §5.2 private
// sub-partitions, and the parallel rewrite.
var DefaultOrder = []string{
	"parse", "check", "normalize", "infer", "relax", "solve", "private", "rewrite",
}

// Register adds a pass to the registry (panics on duplicate names, which
// indicate an init-time programming error).
func Register(p Pass) {
	if _, dup := registry[p.Name()]; dup {
		panic(fmt.Sprintf("pipeline: duplicate pass %q", p.Name()))
	}
	registry[p.Name()] = p
}

// Lookup finds a registered pass.
func Lookup(name string) (Pass, bool) {
	p, ok := registry[name]
	return p, ok
}

// Passes resolves a sequence of pass names against the registry.
func Passes(names ...string) ([]Pass, error) {
	out := make([]Pass, 0, len(names))
	for _, name := range names {
		p, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("pipeline: unknown pass %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// Default returns the standard pass sequence.
func Default() []Pass {
	ps, err := Passes(DefaultOrder...)
	if err != nil {
		panic(err) // DefaultOrder names only init-registered passes
	}
	return ps
}

// fallbackCode maps a pass name to the generic diagnostic code used when
// the pass fails with an uncoded error.
func fallbackCode(pass string) string {
	switch pass {
	case "parse":
		return "P000"
	case "check":
		return "C000"
	case "normalize":
		return "N000"
	case "infer":
		return "I000"
	case "relax", "private":
		return "O000"
	case "solve":
		return "S000"
	case "rewrite":
		return "R000"
	default:
		return ""
	}
}

// Runner executes a pass sequence over a session, notifying observers
// around every pass.
type Runner struct {
	Passes    []Pass
	Observers []Observer
}

// NewRunner builds a runner over the default pass sequence.
func NewRunner(obs ...Observer) *Runner {
	return &Runner{Passes: Default(), Observers: obs}
}

// Run executes the passes in order. On failure the error is recorded as
// a structured diagnostic on the session, observers still receive the
// pass-end event (with Err set), and the returned error wraps the
// pass's error with its name — preserving the "<pass>: ..." error shape
// of the pre-pipeline compiler.
func (r *Runner) Run(s *Session) error {
	for i, p := range r.Passes {
		for _, o := range r.Observers {
			o.OnPassStart(p.Name(), i)
		}
		start := time.Now()
		err := p.Run(s)
		wall := time.Since(start)
		if err != nil {
			s.Diags = append(s.Diags, diag.From(err, fallbackCode(p.Name())))
		}
		ev := PassEvent{
			Pass:    p.Name(),
			Index:   i,
			Wall:    wall,
			Metrics: s.Metrics(),
			Err:     err,
		}
		for _, o := range r.Observers {
			o.OnPassEnd(ev)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
	}
	if s.Config.Incremental {
		s.retain()
	}
	return nil
}
