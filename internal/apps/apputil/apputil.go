// Package apputil provides the scaffolding the five benchmark
// applications share: running the auto-parallelization pipeline against
// a concrete workload and extracting the launches and partitions the
// cost model consumes.
package apputil

import (
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/runtime"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// Auto bundles an auto-parallelized benchmark instance: the compiled
// program, its evaluated partitions at a node count, and the runtime
// launches.
type Auto struct {
	Compiled *autopart.Compiled
	Parts    map[string]*region.Partition
	Launches []*runtime.Launch
	// Plan pairs each launch with its rewritten loop for the distributed
	// executor; Launches aliases its launch list.
	Plan *runtime.Plan
}

// BuildAuto compiles src, evaluates its partitions over machine m with
// one color per node, and converts every parallel loop to a launch.
func BuildAuto(src string, m *ir.Machine, nodes int, external map[string]*region.Partition, opts autopart.Options) (*Auto, error) {
	c, err := autopart.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return InstantiateAuto(c, m, nodes, external)
}

// InstantiateAuto evaluates an already-compiled program against a
// machine (compilation is node-count independent; evaluation is not).
func InstantiateAuto(c *autopart.Compiled, m *ir.Machine, nodes int, external map[string]*region.Partition) (*Auto, error) {
	ctx, err := c.NewContext(nodes, m)
	if err != nil {
		return nil, err
	}
	for sym, p := range external {
		ctx.Bind(sym, p)
	}
	parts, err := c.Evaluate(ctx)
	if err != nil {
		return nil, err
	}
	a := &Auto{Compiled: c, Parts: parts, Plan: runtime.NewPlan(c.Parallel)}
	a.Launches = a.Plan.Launches()
	return a, nil
}

// IterSym returns the canonical iteration partition symbol of a loop.
func (a *Auto) IterSym(loop int) string {
	return a.Compiled.Parallel[loop].IterSym
}

// AccessSym finds the canonical partition symbol of an access in a loop
// matching region (and kind, unless kind is -1). Access is a map, so
// among several matches the smallest symbol wins: the choice — and
// every launch, serialized program and cost derived from it — must not
// depend on iteration order.
func (a *Auto) AccessSym(loop int, regionName string, kind infer.AccessKind) (sym string, ok bool) {
	for _, info := range a.Compiled.Parallel[loop].Access {
		if info.Region == regionName && (kind < 0 || info.Kind == kind) && (!ok || info.Sym < sym) {
			sym, ok = info.Sym, true
		}
	}
	return sym, ok
}

// Partition looks up an evaluated partition by canonical symbol.
func (a *Auto) Partition(sym string) (*region.Partition, bool) {
	p, ok := a.Parts[sym]
	return p, ok
}

// MeasureIterations runs warmup+1 iterations of the launches and returns
// the steady-state iteration stats (the paper measures after programs
// reach a steady state).
func MeasureIterations(model sim.Model, launches []*runtime.Launch, parts map[string]*region.Partition, st *sim.State, warmup int) (sim.IterationStats, error) {
	var stats sim.IterationStats
	var err error
	for i := 0; i <= warmup; i++ {
		stats, err = model.RunIteration(launches, parts, st)
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
