// Package autopart is the public API of the constraint-based automatic
// data partitioning system (Lee et al., SC '19): compile a sequential
// loop program into partitioning constraints, solve them into a DPL
// program, evaluate the partitions against concrete data, and execute
// the parallelized loops.
//
// The pipeline is:
//
//	Compile       source → AST → IR → constraints → (relax) → unify+solve
//	              → private sub-partitions → parallel loops
//	NewContext    wire concrete regions and index maps for DPL evaluation
//	Evaluate      run the DPL program, producing concrete partitions
//	RunParallel   run the parallel loops with parallel semantics
package autopart

import (
	"fmt"
	"io"
	"time"

	"autopart/internal/constraint"
	"autopart/internal/diag"
	"autopart/internal/dpl"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/optimize"
	"autopart/internal/pipeline"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/solver"
)

// Options configure compilation.
type Options struct {
	// DisableRelaxation turns off the §5.1 disjointness relaxation.
	DisableRelaxation bool
	// DisablePrivateSubPartitions turns off the §5.2 optimization.
	DisablePrivateSubPartitions bool
	// Trace, when non-nil, receives one JSON line per compiler pass
	// (name, index, wall time, artifact metrics).
	Trace io.Writer
	// Observers receive pass lifecycle events in addition to any Trace
	// writer; see pipeline.Observer.
	Observers []pipeline.Observer
}

// Timing is the per-phase compile-time breakdown (Table 1's rows).
type Timing struct {
	Parse     time.Duration
	Inference time.Duration
	Solver    time.Duration
	Rewrite   time.Duration
}

// Total sums the phases.
func (t Timing) Total() time.Duration {
	return t.Parse + t.Inference + t.Solver + t.Rewrite
}

// Compiled is the result of compiling a source program.
type Compiled struct {
	Source       *lang.Program
	Loops        []*ir.Loop
	Inference    []*infer.Result
	Plans        []*optimize.LoopPlan
	Solution     *solver.Solution
	Private      *optimize.PrivatePlan
	Parallel     []*rewrite.ParallelLoop
	External     *constraint.System
	ExternalSyms []string
	Timing       Timing
	// Diagnostics holds the structured diagnostics accumulated during
	// compilation (empty on success today; a failed Compile records the
	// failure here with its source span and code).
	Diagnostics []diag.Diagnostic
}

// Compile runs the staged pass pipeline (internal/pipeline) on DSL
// source text. It is a thin façade: passes are resolved from the
// pipeline registry, timing is derived from a per-pass observer, and
// tracing/observability hooks attach via Options.
func Compile(src string, opts Options) (*Compiled, error) {
	c, _, err := compile(src, opts)
	return c, err
}

// CompileSession runs the pipeline and additionally returns the
// pipeline session, exposing per-pass artifacts and accumulated
// diagnostics even when compilation fails (the Compiled result is nil
// on error).
func CompileSession(src string, opts Options) (*Compiled, *pipeline.Session, error) {
	return compile(src, opts)
}

func compile(src string, opts Options) (*Compiled, *pipeline.Session, error) {
	// Hold an intern-table epoch for the duration of the compile so a
	// bounded table (configured by a Service sharing this process) never
	// reclaims mid-compile — expression and symbol ids stay coherent for
	// every pass.
	ep := dpl.Default().Enter()
	defer ep.Leave()

	s := pipeline.NewSession(src, pipeline.Config{
		DisableRelaxation:           opts.DisableRelaxation,
		DisablePrivateSubPartitions: opts.DisablePrivateSubPartitions,
	})
	return runSession(s, opts)
}

// runSession executes the pass pipeline over a prepared session and
// assembles the Compiled result. Both the one-shot Compile façade and
// the Service funnel through here, so results are identical
// regardless of which entry point produced them.
func runSession(s *pipeline.Session, opts Options) (*Compiled, *pipeline.Session, error) {
	timing := pipeline.NewTimingObserver()
	obs := []pipeline.Observer{timing}
	if opts.Trace != nil {
		obs = append(obs, pipeline.TraceObserver{W: opts.Trace})
	}
	obs = append(obs, opts.Observers...)

	if err := pipeline.NewRunner(obs...).Run(s); err != nil {
		return nil, s, err
	}
	return buildCompiled(s, timing), s, nil
}

// buildCompiled lifts the session's artifacts into the public result
// shape.
func buildCompiled(s *pipeline.Session, timing *pipeline.TimingObserver) *Compiled {
	return &Compiled{
		Source:       s.Program,
		Loops:        s.Loops,
		Inference:    s.Inference,
		Plans:        s.Plans,
		Solution:     s.Solution,
		Private:      s.Private,
		Parallel:     s.Parallel,
		External:     s.External,
		ExternalSyms: s.ExternalSyms,
		Diagnostics:  append([]diag.Diagnostic(nil), s.Diags...),
		// Timing keeps its historical four-phase shape (Table 1's rows),
		// derived from the finer-grained pass timings.
		Timing: Timing{
			Parse:     timing.Duration("parse") + timing.Duration("check"),
			Inference: timing.Duration("normalize") + timing.Duration("infer"),
			Solver:    timing.Duration("relax") + timing.Duration("solve") + timing.Duration("private"),
			Rewrite:   timing.Duration("rewrite"),
		},
	}
}

// DPLProgram returns the synthesized DPL program including private
// sub-partition statements.
func (c *Compiled) DPLProgram() dpl.Program {
	prog := dpl.Program{Stmts: append([]dpl.Stmt(nil), c.Solution.Program.Stmts...)}
	if c.Private != nil {
		prog.Stmts = append(prog.Stmts, c.Private.Extra.Stmts...)
	}
	return prog
}

// NewContext builds a DPL evaluation context from a machine: all regions
// are registered, every declared index function is taken from the
// machine, and pointer/range field maps are derived from region data
// under their canonical "R[·].f" names.
func (c *Compiled) NewContext(colors int, m *ir.Machine) (*dpl.Context, error) {
	ctx := dpl.NewContext(colors)
	for _, decl := range c.Source.Regions {
		r, ok := m.Regions[decl.Name]
		if !ok {
			return nil, fmt.Errorf("autopart: machine lacks region %q", decl.Name)
		}
		ctx.AddRegion(r)
		for _, f := range decl.Fields {
			name := fmt.Sprintf("%s[·].%s", decl.Name, f.Name)
			switch f.Kind {
			case lang.IndexKind:
				ctx.AddMap(name, r.PointerMap(f.Name))
			case lang.RangeKind:
				ctx.AddMultiMap(name, r.RangeMap(f.Name))
			}
		}
	}
	for _, f := range c.Source.Funcs {
		fn, ok := m.Funcs[f.Name]
		if !ok {
			return nil, fmt.Errorf("autopart: machine lacks index function %q", f.Name)
		}
		ctx.AddMap(f.Name, fn)
	}
	return ctx, nil
}

// Evaluate runs the DPL program in the context. External partitions must
// already be bound in the context (ctx.Bind). It returns the partitions
// for every program symbol plus the externals.
func (c *Compiled) Evaluate(ctx *dpl.Context) (map[string]*region.Partition, error) {
	parts, err := c.DPLProgram().Eval(ctx)
	if err != nil {
		return nil, err
	}
	for _, sym := range c.ExternalSyms {
		p, ok := ctx.Binding(sym)
		if !ok {
			return nil, fmt.Errorf("autopart: external partition %q not bound", sym)
		}
		parts[sym] = p
	}
	return parts, nil
}

// RunParallel executes every parallel loop once (one outer "main loop"
// iteration), in program order. Partitions are re-evaluated before each
// launch, mirroring dependent partitioning semantics: a launch that
// rewrites pointer fields (Fig. 4) changes the partitions later launches
// derive from them.
func (c *Compiled) RunParallel(m *ir.Machine, colors int, external map[string]*region.Partition) error {
	for _, pl := range c.Parallel {
		ctx, err := c.NewContext(colors, m)
		if err != nil {
			return err
		}
		for sym, p := range external {
			ctx.Bind(sym, p)
		}
		parts, err := c.Evaluate(ctx)
		if err != nil {
			return err
		}
		if err := rewrite.RunLaunch(m, parts, pl); err != nil {
			return fmt.Errorf("%s: %w", pl, err)
		}
	}
	return nil
}

// RunSequential executes every loop once with the reference sequential
// semantics.
func (c *Compiled) RunSequential(m *ir.Machine) error {
	for _, l := range c.Loops {
		if err := m.RunSequential(l); err != nil {
			return err
		}
	}
	return nil
}
