package solver

import (
	"testing"

	"autopart/internal/constraint"
)

// sysWith builds the canonical single-loop constraint shape of Fig. 7:
// an iteration partition over R (PART/COMP/DISJ) whose image under fn
// must fall inside a read partition over S.
func sysWith(iter, read, fn string) *constraint.System {
	sys := &constraint.System{}
	sys.AddPred(constraint.Pred{Kind: constraint.Part, E: v(iter), Region: "R"})
	sys.AddPred(constraint.Pred{Kind: constraint.Comp, E: v(iter), Region: "R"})
	sys.AddPred(constraint.Pred{Kind: constraint.Disj, E: v(iter)})
	sys.AddPred(constraint.Pred{Kind: constraint.Part, E: v(read), Region: "S"})
	sys.AddSubset(constraint.Subset{L: img(v(iter), fn, "S"), R: v(read)})
	return sys
}

func symbols(sys *constraint.System) map[string]bool {
	out := map[string]bool{}
	for _, s := range sys.Symbols() {
		out[s] = true
	}
	return out
}

// TestUnifyIsomorphicSystems checks the positive case of Algorithm 3:
// two loops with isomorphic constraint subgraphs collapse onto one set
// of partition symbols, eliminating the duplicate subset constraint.
func TestUnifyIsomorphicSystems(t *testing.T) {
	sysA := sysWith("A1", "A2", "g")
	sysB := sysWith("B1", "B2", "g")

	combined, canon, err := New(nil, nil).UnifyAndSolve([]*constraint.System{sysA, sysB})
	if err != nil {
		t.Fatal(err)
	}

	if got := canon["B1"]; got != "A1" {
		t.Errorf("canon[B1] = %q, want A1", got)
	}
	if got := canon["B2"]; got != "A2" {
		t.Errorf("canon[B2] = %q, want A2", got)
	}
	if len(combined.Subsets) != 1 {
		t.Errorf("combined has %d subset constraints, want 1 (duplicate unified away):\n%s",
			len(combined.Subsets), combined)
	}
	syms := symbols(combined)
	for _, gone := range []string{"B1", "B2"} {
		if syms[gone] {
			t.Errorf("symbol %s survived unification:\n%s", gone, combined)
		}
	}
	for _, kept := range []string{"A1", "A2"} {
		if !syms[kept] {
			t.Errorf("symbol %s missing from combined system:\n%s", kept, combined)
		}
	}
}

// TestUnifyRejectsDifferentEdgeLabels is the negative case: graphs that
// are isomorphic except for the index-function label on an image edge
// must NOT unify — merging them would equate partitions constrained
// through different maps. Both loops' symbols survive separately.
func TestUnifyRejectsDifferentEdgeLabels(t *testing.T) {
	sysA := sysWith("A1", "A2", "g")
	sysB := sysWith("B1", "B2", "h") // same shape, different function

	combined, canon, err := New(nil, nil).UnifyAndSolve([]*constraint.System{sysA, sysB})
	if err != nil {
		t.Fatal(err)
	}

	if len(canon) != 0 {
		t.Errorf("near-isomorphic systems unified: canon = %v", canon)
	}
	if len(combined.Subsets) != 2 {
		t.Errorf("combined has %d subset constraints, want 2 (nothing merged):\n%s",
			len(combined.Subsets), combined)
	}
	syms := symbols(combined)
	for _, want := range []string{"A1", "A2", "B1", "B2"} {
		if !syms[want] {
			t.Errorf("symbol %s missing from combined system:\n%s", want, combined)
		}
	}
}

// TestUnifyRejectsDifferentRegions: nodes only pair when their PART
// regions agree, so loops over different regions keep distinct symbols
// even with identical edge structure.
func TestUnifyRejectsDifferentRegions(t *testing.T) {
	sysA := sysWith("A1", "A2", "g")
	sysB := &constraint.System{}
	sysB.AddPred(constraint.Pred{Kind: constraint.Part, E: v("B1"), Region: "T"})
	sysB.AddPred(constraint.Pred{Kind: constraint.Comp, E: v("B1"), Region: "T"})
	sysB.AddPred(constraint.Pred{Kind: constraint.Disj, E: v("B1")})
	sysB.AddPred(constraint.Pred{Kind: constraint.Part, E: v("B2"), Region: "S"})
	sysB.AddSubset(constraint.Subset{L: img(v("B1"), "g", "S"), R: v("B2")})

	_, canon, err := New(nil, nil).UnifyAndSolve([]*constraint.System{sysA, sysB})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := canon["B1"]; ok {
		t.Errorf("B1 (over region T) unified with %q (over region R)", got)
	}
}

// Every solver test runs with the accumulated-graph check on, so each
// graph the cache serves is fingerprint-checked against a fresh build.
func init() { checkGraphCache = true }

// TestUnifyGraphCacheCheck runs Algorithm 3 with checkGraphCache on,
// under which every graph served by the accumulated-graph cache is
// fingerprint-checked against a fresh BuildGraph and a mismatch panics.
// A clean multi-loop run proves the incremental extension path produces
// exactly the graphs a full rebuild would.
func TestUnifyGraphCacheCheck(t *testing.T) {
	if !checkGraphCache {
		t.Fatal("checkGraphCache is off")
	}
	sysA := sysWith("A1", "A2", "g")
	sysB := sysWith("B1", "B2", "g")
	sysC := sysWith("C1", "C2", "h") // does not unify; exercises more rounds
	s := New(nil, nil)
	_, canon, err := s.UnifyAndSolve([]*constraint.System{sysA, sysB, sysC})
	if err != nil {
		t.Fatal(err)
	}
	if canon["B1"] != "A1" {
		t.Errorf("canon = %v, want B1→A1", canon)
	}
	stats := s.Stats()
	if stats.GraphBuilds == 0 {
		t.Error("no graph builds recorded")
	}
	if stats.GraphExtends == 0 {
		t.Error("no incremental graph extensions recorded — cache not exercised")
	}
	if stats.UnifyNS <= 0 {
		t.Errorf("UnifyNS = %d, want > 0", stats.UnifyNS)
	}
}

// TestUnifyAcrossLoopsEndToEnd drives Algorithm 3 from DSL source: two
// loops with identical access structure must share partition symbols in
// the solved program.
func TestUnifyAcrossLoopsEndToEnd(t *testing.T) {
	src := `
region Particles { cell: index(Cells), pos: scalar }
region Cells { vel: scalar }
for p in Particles {
  c = Particles[p].cell
  Particles[p].pos += f(Cells[c].vel)
}
for q in Particles {
  d = Particles[q].cell
  Particles[q].pos += g(Cells[d].vel)
}
`
	sol := solveSrc(t, src)

	merged := 0
	for from, to := range sol.Canon {
		if from != to {
			merged++
		}
	}
	if merged == 0 {
		t.Fatalf("no symbols unified across isomorphic loops; canon = %v", sol.Canon)
	}
	// Both loops resolve their iteration and read partitions to the same
	// canonical symbols, so the DPL program needs only one partition pair.
	targets := map[string]bool{}
	for _, to := range sol.Canon {
		targets[to] = true
	}
	if len(targets) >= len(sol.Canon) {
		t.Errorf("unification did not reduce distinct symbols: %d targets for %d symbols",
			len(targets), len(sol.Canon))
	}
}
