package gen

import (
	"testing"
)

// The seed ranges here are fixed deliberately: CI runs this test under
// -race as a gate, so the corpus must be reproducible run to run. New
// coverage comes from widening the range in a commit, not from
// randomizing it.

// TestExecOracleSeeds differentially executes 1,000 Small-tier
// scenarios: every accepted program must run bit-identically under the
// true sequential interpreter, the sequential parallel-semantics
// reference, and the distributed executor. The last two share
// rewrite.RunShard, so this is the gate that holds the shard interpreter
// against an independent one (ir.Machine.RunSequential).
func TestExecOracleSeeds(t *testing.T) {
	counts := map[string]int{}
	for seed := int64(0); seed < 1000; seed++ {
		sc := Generate(seed, Small)
		r := RunExecOracle(sc)
		switch r.Verdict {
		case ExecOK:
			counts["ok"]++
		case ExecRejected:
			counts[r.Code]++
		default:
			t.Errorf("seed %d: %s\nreproducer:\n%s", seed, r, sc.Repro())
		}
	}
	if counts["ok"] == 0 {
		t.Fatalf("no scenario compiled: %v", counts)
	}
	t.Logf("verdicts: %v", counts)
}

// TestSolverOracleSeeds semantically cross-checks the solver on 200
// Tiny-tier scenarios: accepted systems re-verified conjunct by
// conjunct on concrete partitions, S001 rejections re-searched by the
// brute-force enumerator.
func TestSolverOracleSeeds(t *testing.T) {
	counts := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed, Tiny)
		r := RunSolverOracle(sc)
		switch r.Verdict {
		case SolverOK:
			counts["ok"]++
		case SolverRejected:
			counts[r.Code]++
		case SolverUndecided:
			counts["undecided"]++
		default:
			t.Errorf("seed %d: %s\nreproducer:\n%s", seed, r, sc.Repro())
		}
	}
	if counts["ok"] == 0 {
		t.Fatalf("no scenario validity-checked: %v", counts)
	}
	t.Logf("verdicts: %v", counts)
}

// TestGeneratorDeterminism pins the generator's core contract: equal
// (seed, tier) yields byte-identical scenarios, and the oracle verdict
// is a pure function of the scenario. The exec oracle's distributed leg
// runs real goroutine scheduling, so verdict stability across runs is
// not vacuous.
func TestGeneratorDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42, 166, 267, 278, 1013} {
		a, b := Generate(seed, Small), Generate(seed, Small)
		if a.Repro() != b.Repro() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		ra, rb := RunExecOracle(a), RunExecOracle(b)
		if ra.String() != rb.String() {
			t.Fatalf("seed %d: oracle not deterministic: %s vs %s", seed, ra, rb)
		}
	}
}

// TestReproRoundTrip proves reproducer files are self-contained: a
// scenario rendered by Repro and re-read by ParseRepro reaches the same
// oracle verdict. This is what makes the committed regress_*.dsl files
// trustworthy.
func TestReproRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		sc := Generate(seed, Small)
		back, err := ParseRepro(sc.Repro())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, b := RunExecOracle(sc), RunExecOracle(back)
		if a.String() != b.String() {
			t.Fatalf("seed %d: original %s vs reparsed %s", seed, a, b)
		}
	}
}

// TestShrinkKeepsPredicate checks the shrinker's invariant on a
// rejected scenario: the minimized scenario still satisfies the
// predicate it was shrunk under, and is no larger than the original.
func TestShrinkKeepsPredicate(t *testing.T) {
	sc := Generate(166, Small)
	orig := RunExecOracle(sc)
	if orig.Code != "I009" {
		t.Fatalf("seed 166 drifted: %s", orig)
	}
	pred := func(c *Scenario) bool {
		r := RunExecOracle(c)
		return r.Verdict == ExecRejected && r.Code == "I009"
	}
	min := Shrink(sc, pred)
	if !pred(min) {
		t.Fatal("shrunk scenario no longer satisfies the predicate")
	}
	if len(min.Src) > len(sc.Src) {
		t.Fatalf("shrinking grew the program: %d > %d bytes", len(min.Src), len(sc.Src))
	}
}
