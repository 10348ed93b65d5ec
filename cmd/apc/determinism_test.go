package main

import (
	"testing"

	"autopart/internal/par"
	"autopart/pkg/autopart"
)

// builtinSources mirrors loadSource's builtin table for the benchmark
// programs under golden test.
func builtinSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, b := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant"} {
		src, _, err := loadSource(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[b] = src
	}
	return out
}

// TestParallelSequentialDeterminism proves the parallel unification path
// is deterministic: compiling with the process-wide sequential switch on
// and off yields identical canonicalization maps and byte-identical
// -constraints/-launches output for every builtin benchmark. The
// parallel candidate checks pick their winner by candidate order, not
// completion order, so the two modes must never diverge.
func TestParallelSequentialDeterminism(t *testing.T) {
	for name, src := range builtinSources(t) {
		t.Run(name, func(t *testing.T) {
			par.SetSequential(true)
			seq, err := autopart.Compile(src, autopart.Options{})
			par.SetSequential(false)
			if err != nil {
				t.Fatalf("sequential compile: %v", err)
			}
			parallel, err := autopart.Compile(src, autopart.Options{})
			if err != nil {
				t.Fatalf("parallel compile: %v", err)
			}

			if len(seq.Solution.Canon) != len(parallel.Solution.Canon) {
				t.Fatalf("Canon size differs: sequential %d vs parallel %d",
					len(seq.Solution.Canon), len(parallel.Solution.Canon))
			}
			for sym, want := range seq.Solution.Canon {
				if got, ok := parallel.Solution.Canon[sym]; !ok || got != want {
					t.Errorf("Canon[%q]: sequential %q, parallel %q (present=%v)", sym, want, got, ok)
				}
			}
			if s, p := seq.Solution.Program.String(), parallel.Solution.Program.String(); s != p {
				t.Errorf("DPL program differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
			}

			// Full driver output (constraints + launches), timing stripped.
			par.SetSequential(true)
			seqOut, seqErr, code := runAPC(t, "", "-builtin", name, "-constraints", "-launches")
			par.SetSequential(false)
			if code != 0 {
				t.Fatalf("sequential apc exit %d:\n%s", code, seqErr)
			}
			parOut, parErr, code := runAPC(t, "", "-builtin", name, "-constraints", "-launches")
			if code != 0 {
				t.Fatalf("parallel apc exit %d:\n%s", code, parErr)
			}
			if s, p := stripTiming(seqOut), stripTiming(parOut); s != p {
				t.Errorf("-constraints/-launches output differs between modes\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}
