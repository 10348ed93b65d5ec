// Command apc is the auto-partitioning compiler driver: it reads a loop
// DSL program, runs the staged pass pipeline — constraint inference
// (§2), the solver (§3), the §5 optimizations — and prints the inferred
// constraints, the synthesized DPL program, and the parallel launch
// structure.
//
// Usage:
//
//	apc [-constraints] [-launches] [-trace] file.dsl
//	apc -builtin spmv|stencil|circuit|miniaero|pennant
//	apc -incremental base.dsl edited.dsl
//	apc -explain P001
//	apc -seed 42 [-tier tiny|small]
//	cat file.dsl | apc
//
// -seed reproduces one differential-fuzzing scenario (internal/gen): it
// prints the scenario's self-contained reproducer and runs both oracles
// on it, exiting 1 if either finds a divergence.
//
// -incremental compiles the baseline file first, then recompiles the
// input against it through the incremental frontend: unedited loops
// reuse the baseline's parse/check/normalize/infer artifacts, and a
// reuse summary line reports the clean/dirty split. Output is
// byte-identical to a plain compile of the input.
//
// Compile errors are reported as structured diagnostics with a source
// position and a stable code, e.g.
//
//	apc: prog.dsl:3:7: error[C014]: unknown region "Cels"
//
// and -explain documents any code. With -trace the compiler emits one
// JSON line per pass to stderr with wall time and artifact metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/diag"
	"autopart/internal/gen"
	"autopart/internal/pipeline"
	"autopart/internal/runtime"
	"autopart/pkg/autopart"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the driver body, factored out of main so tests can exercise
// the full command in-process with captured streams.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showConstraints := fs.Bool("constraints", false, "print the inferred partitioning constraints per loop")
	showLaunches := fs.Bool("launches", false, "print the parallel launch structure (region requirements)")
	builtin := fs.String("builtin", "", "compile a builtin benchmark program (spmv, stencil, circuit, miniaero, pennant)")
	noRelax := fs.Bool("no-relax", false, "disable the §5.1 disjointness relaxation")
	noPrivate := fs.Bool("no-private", false, "disable §5.2 private sub-partitions")
	incrBase := fs.String("incremental", "", "baseline program file: compile it first, then recompile the input incrementally against it, reporting per-loop reuse")
	trace := fs.Bool("trace", false, "emit one JSON line per compiler pass to stderr (wall time, artifact metrics)")
	explain := fs.String("explain", "", "explain a diagnostic code (e.g. P001) and exit; 'all' lists every code")
	fuzzSeed := fs.Int64("seed", -1, "generate the fuzz scenario for this seed, print its reproducer, and run the differential oracles on it")
	fuzzTier := fs.String("tier", "small", "generator tier for -seed (tiny, small)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *explain != "" {
		return runExplain(*explain, stdout, stderr)
	}
	if *fuzzSeed >= 0 {
		return runSeed(*fuzzSeed, *fuzzTier, stdout, stderr)
	}

	src, file, err := loadSource(*builtin, fs.Args(), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "apc:", err)
		return 1
	}

	opts := autopart.Options{
		DisableRelaxation:           *noRelax,
		DisablePrivateSubPartitions: *noPrivate,
	}
	if *trace {
		opts.Trace = stderr
	}
	var c *autopart.Compiled
	if *incrBase != "" {
		// Incremental mode: seed a keyed session with the baseline, then
		// recompile the input against it. Output is byte-identical to a
		// cold compile; only the work performed (and the reuse line
		// below) differs.
		base, err := os.ReadFile(*incrBase)
		if err != nil {
			fmt.Fprintln(stderr, "apc:", err)
			return 1
		}
		sv := autopart.NewService(autopart.ServiceOptions{Base: opts})
		if _, err := sv.CompileIncremental("apc", string(base)); err != nil {
			fmt.Fprintf(stderr, "apc: baseline %s: %v\n", *incrBase, err)
			return 1
		}
		seeded := sv.Stats()
		c, err = sv.CompileIncremental("apc", src)
		if err != nil {
			fmt.Fprintln(stderr, "apc:", err)
			return 1
		}
		st := sv.Stats()
		if st.IncrementalCold > seeded.IncrementalCold {
			fmt.Fprintf(stdout, "incremental vs %s: cold fallback (program not diffable against baseline)\n", *incrBase)
		} else {
			fmt.Fprintf(stdout, "incremental vs %s: %d clean / %d dirty loops\n", *incrBase,
				st.IncrementalCleanLoops-seeded.IncrementalCleanLoops,
				st.IncrementalDirtyLoops-seeded.IncrementalDirtyLoops)
		}
	} else {
		var session *pipeline.Session
		c, session, err = autopart.CompileSession(src, opts)
		if err != nil {
			if session != nil && len(session.Diags) > 0 {
				for _, d := range session.Diags {
					fmt.Fprintf(stderr, "apc: %s\n", d.Format(file))
				}
			} else {
				fmt.Fprintln(stderr, "apc:", err)
			}
			return 1
		}
	}

	if *showConstraints {
		for i, plan := range c.Plans {
			relaxed := ""
			if plan.Relaxed {
				relaxed = " (relaxed per §5.1)"
			}
			fmt.Fprintf(stdout, "loop %d: for %s in %s%s\n", i, c.Loops[i].Var, c.Loops[i].Region, relaxed)
			fmt.Fprintf(stdout, "  %s\n", plan.Sys)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "synthesized DPL program:")
	fmt.Fprintln(stdout, indent(c.Solution.Program.String()))
	if c.Private != nil && len(c.Private.Extra.Stmts) > 0 {
		fmt.Fprintln(stdout, "private sub-partitions (§5.2, Theorem 5.1):")
		fmt.Fprintln(stdout, indent(c.Private.Extra.String()))
	}

	if *showLaunches {
		fmt.Fprintln(stdout, "parallel launches:")
		for i, pl := range c.Parallel {
			l := runtime.FromParallelLoop(fmt.Sprintf("loop%d", i), pl)
			fmt.Fprintf(stdout, "  %s\n", l)
		}
	}

	fmt.Fprintf(stdout, "\ncompile time: parse %v, inference %v, solver %v, rewrite %v (total %v)\n",
		c.Timing.Parse, c.Timing.Inference, c.Timing.Solver, c.Timing.Rewrite, c.Timing.Total())
	return 0
}

// runSeed implements -seed: reproduce one fuzz scenario end to end. The
// reproducer is printed first so a failing seed can be saved to a .dsl
// file directly, then both differential oracles report their verdicts.
// Exit status 1 means an oracle found a divergence.
func runSeed(seed int64, tierName string, stdout, stderr io.Writer) int {
	var tier gen.Tier
	switch tierName {
	case "tiny":
		tier = gen.Tiny
	case "small":
		tier = gen.Small
	default:
		fmt.Fprintf(stderr, "apc: unknown tier %q (want tiny or small)\n", tierName)
		return 2
	}
	sc := gen.Generate(seed, tier)
	fmt.Fprint(stdout, sc.Repro())
	fmt.Fprintln(stdout)

	execRep := gen.RunExecOracle(sc)
	fmt.Fprintf(stdout, "exec oracle:   %s\n", execRep)
	solverRep := gen.RunSolverOracle(sc)
	fmt.Fprintf(stdout, "solver oracle: %s\n", solverRep)
	if execRep.Failed() || solverRep.Failed() {
		return 1
	}
	return 0
}

// runExplain implements -explain: document one diagnostic code, or all
// of them.
func runExplain(code string, stdout, stderr io.Writer) int {
	if code == "all" {
		for _, info := range diag.Codes() {
			fmt.Fprintf(stdout, "%s: %s\n", info.Code, info.Summary)
		}
		return 0
	}
	info, ok := diag.Explain(code)
	if !ok {
		fmt.Fprintf(stderr, "apc: unknown diagnostic code %q (use -explain all to list)\n", code)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s\n\n%s\n", info.Code, info.Summary, info.Detail)
	return 0
}

// loadSource resolves the program text plus the display name used in
// diagnostics ("builtin:spmv", the file path, or "<stdin>").
func loadSource(builtin string, args []string, stdin io.Reader) (src, file string, err error) {
	switch builtin {
	case "spmv":
		return spmv.Source, "builtin:spmv", nil
	case "stencil":
		return stencil.Source(), "builtin:stencil", nil
	case "circuit":
		return circuit.Source, "builtin:circuit", nil
	case "circuit-hint":
		return circuit.HintSource, "builtin:circuit-hint", nil
	case "miniaero":
		return miniaero.Source(), "builtin:miniaero", nil
	case "pennant":
		return pennant.Source(), "builtin:pennant", nil
	case "":
	default:
		return "", "", fmt.Errorf("unknown builtin %q", builtin)
	}
	if len(args) > 0 {
		data, err := os.ReadFile(args[0])
		if err != nil {
			return "", "", err
		}
		return string(data), args[0], nil
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		return "", "", err
	}
	return string(data), "<stdin>", nil
}

func indent(s string) string {
	out := "  "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "  "
		}
	}
	return out
}
