package solver_test

import (
	"fmt"
	"strings"
	"testing"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/dpl"
	"autopart/internal/gen"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/optimize"
	"autopart/internal/solver"
	"autopart/pkg/autopart"
)

// synthLoops is the benchmark's synth50 generator: n loops whose
// 60-statement scalar chains sit between one region read and one
// region write.
func synthLoops(n int) string {
	const stmts = 60
	var b strings.Builder
	b.WriteString("region Grid { a: scalar, b: scalar }\n")
	for l := 0; l < n; l++ {
		b.WriteString("for i in Grid {\n")
		fmt.Fprintf(&b, "  t0 = Grid[i].a + %d\n", l)
		for k := 1; k < stmts; k++ {
			fmt.Fprintf(&b, "  t%d = t%d * t%d + %d\n", k, k-1, k-1, k)
		}
		fmt.Fprintf(&b, "  Grid[i].b = t%d\n", stmts-1)
		b.WriteString("}\n")
	}
	return b.String()
}

// compileColdSources are the eight sources of the compile-cold
// benchmark workload, in its order.
func compileColdSources() [][2]string {
	return [][2]string{
		{"spmv", spmv.Source},
		{"stencil", stencil.Source()},
		{"circuit", circuit.Source},
		{"circuit-hint", circuit.HintSource},
		{"miniaero", miniaero.Source()},
		{"pennant", pennant.Source()},
		{"pennant-h2", pennant.HintSource(2)},
		{"synth50", synthLoops(50)},
	}
}

// decisionStats is the part of SolveStats that records which decisions
// Algorithm 2 and 3 took, as opposed to how long they took.
type decisionStats struct {
	Nodes, NodeHits                  int
	ClosedHits, ClosedMisses         int
	UnifyRoundHits, UnifyRoundMisses int
	GraphBuilds, GraphExtends        int
}

func decisionsOf(st solver.SolveStats) decisionStats {
	return decisionStats{
		Nodes: st.Nodes, NodeHits: st.NodeHits,
		ClosedHits: st.ClosedHits, ClosedMisses: st.ClosedMisses,
		UnifyRoundHits: st.UnifyRoundHits, UnifyRoundMisses: st.UnifyRoundMisses,
		GraphBuilds: st.GraphBuilds, GraphExtends: st.GraphExtends,
	}
}

// TestSolveDecisionsPinned pins the solver's decision counters on the
// compile-cold sources, each compiled one-shot from an empty intern
// table. Equal output alone would not show a change in which candidates
// Algorithm 3 checks, when the same winner is committed; the search
// nodes behind those checks, the subtrees and closed conjuncts the memos
// cut, and the graph cache's activity do.
func TestSolveDecisionsPinned(t *testing.T) {
	want := map[string]decisionStats{
		"spmv":         {Nodes: 7, ClosedMisses: 1, UnifyRoundMisses: 1, GraphBuilds: 1},
		"stencil":      {Nodes: 20, ClosedMisses: 1, UnifyRoundMisses: 2, GraphBuilds: 1, GraphExtends: 1},
		"circuit":      {Nodes: 14, ClosedMisses: 2, UnifyRoundMisses: 3, GraphBuilds: 1, GraphExtends: 1},
		"circuit-hint": {Nodes: 14, ClosedMisses: 2, UnifyRoundMisses: 3, GraphBuilds: 1, GraphExtends: 1},
		"miniaero":     {Nodes: 553, ClosedHits: 106, ClosedMisses: 81, UnifyRoundMisses: 43, GraphBuilds: 1, GraphExtends: 22},
		"pennant":      {Nodes: 76, ClosedHits: 3, ClosedMisses: 5, UnifyRoundMisses: 39, GraphBuilds: 1, GraphExtends: 7},
		"pennant-h2":   {Nodes: 76, ClosedHits: 1, ClosedMisses: 2, UnifyRoundMisses: 39, GraphBuilds: 1, GraphExtends: 7},
		"synth50":      {Nodes: 4, ClosedMisses: 1, UnifyRoundMisses: 50, GraphBuilds: 1, GraphExtends: 1},
	}
	for _, p := range compileColdSources() {
		name, src := p[0], p[1]
		dpl.Default().Reset()
		c, err := autopart.Compile(src, autopart.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decisionsOf(c.Solution.Stats)
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s: decision counters\n got %+v\nwant %+v", name, got, w)
		}
	}
}

// TestGeneratedSearchPinned pins the summed search counters of one-shot
// compiles of gen.Small seeds 0–399 (the 246 that compile), so a change
// to which subtrees the per-compile refuted-subtree memo cuts shows here
// even when every program's output stays the same.
func TestGeneratedSearchPinned(t *testing.T) {
	compiled, nodes, nodeHits := 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		c, err := autopart.Compile(gen.Generate(seed, gen.Small).Src, autopart.Options{})
		if err != nil {
			continue
		}
		compiled++
		nodes += c.Solution.Stats.Nodes
		nodeHits += c.Solution.Stats.NodeHits
	}
	if compiled != 246 || nodes != 7641 || nodeHits != 129 {
		t.Errorf("compiled/Nodes/NodeHits = %d/%d/%d, want 246/7641/129", compiled, nodes, nodeHits)
	}
}

// TestDeltaTableMatchesRenamedCounts compiles the compile-cold sources
// and 200 generated programs. Every §3.2 test their unification rounds
// make, one per mapping the common-subgraph walk yields, is held by the
// package's checkDelta against the count over a renamed copy of the
// system, and the table it read against a fresh one (the random and
// chained rename maps are in TestDeltaTableRandomRenames).
func TestDeltaTableMatchesRenamedCounts(t *testing.T) {
	srcs := compileColdSources()
	for seed := int64(0); seed < 200; seed++ {
		srcs = append(srcs, [2]string{"gen", gen.Generate(seed, gen.Small).Src})
	}
	before := solver.DeltaChecks()
	for _, p := range srcs {
		// Some generated programs are rejected; the checks cover
		// whatever unification rounds a compile reaches.
		_, _ = autopart.Compile(p[1], autopart.Options{})
	}
	n := solver.DeltaChecks() - before
	t.Logf("%d delta tests checked", n)
	if n < 1000 {
		t.Errorf("only %d delta tests checked", n)
	}
}

// BenchmarkUnifyAndSolve times the solver on a cold start, as
// compile-cold's rounds see it: each iteration empties the intern table
// and re-runs the front half untimed, then solves. The tests' solver
// self-checks are off.
func BenchmarkUnifyAndSolve(b *testing.B) {
	solver.SetChecks(false)
	defer solver.SetChecks(true)
	for _, p := range compileColdSources() {
		if p[0] != "miniaero" && p[0] != "pennant" {
			continue
		}
		b.Run(p[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dpl.Default().Reset()
				prog, err := lang.Parse(p[1])
				if err != nil {
					b.Fatal(err)
				}
				loops, err := ir.NormalizeProgram(prog)
				if err != nil {
					b.Fatal(err)
				}
				results, err := infer.New(prog).InferProgram(loops)
				if err != nil {
					b.Fatal(err)
				}
				ext, syms := infer.ExternalSystem(prog)
				plans := optimize.Relax(results)
				for k, pl := range plans {
					r := *pl.Res
					r.Sys = pl.Sys
					results[k] = &r
				}
				b.StartTimer()
				if _, err := solver.SolveProgramPartial(results, ext, syms, nil, prog.PartialFuncs()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
