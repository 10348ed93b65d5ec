package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"autopart/internal/constraint"
	"autopart/internal/dpl"
)

// refDeltaCounts is the §3.2 count the delta table replaces, kept as
// its reference: the novel (not in the baseline), non-tautological
// conjuncts of a renamed copy of the system, each distinct one once.
func refDeltaCounts(sys *constraint.System, basePred map[constraint.Pred]bool, baseSub map[constraint.Subset]bool) (subs, total int) {
	predSeen := map[constraint.Pred]bool{}
	for _, p := range sys.Preds {
		if !basePred[p] && !predSeen[p] {
			predSeen[p] = true
			total++
		}
	}
	subSeen := map[constraint.Subset]bool{}
	for _, c := range sys.Subsets {
		if dpl.Equal(c.L, c.R) {
			continue
		}
		if !baseSub[c] && !subSeen[c] {
			subSeen[c] = true
			subs++
			total++
		}
	}
	return subs, total
}

// tableDiff describes how t differs from a table freshly built over the
// same system and baseline ("" when equal).
func tableDiff(t *deltaTable) string {
	fresh := newDeltaTable(t.sys, t.basePred, t.baseSub)
	switch {
	case t.nPred != fresh.nPred || t.nSub != fresh.nSub:
		return fmt.Sprintf("counts (%d, %d), fresh (%d, %d)", t.nPred, t.nSub, fresh.nPred, fresh.nSub)
	case !maps.Equal(t.preds, fresh.preds) || !slices.Equal(t.firstPred, fresh.firstPred):
		return fmt.Sprintf("preds %v %v, fresh %v %v", t.preds, t.firstPred, fresh.preds, fresh.firstPred)
	case !maps.Equal(t.subs, fresh.subs) || !slices.Equal(t.firstSub, fresh.firstSub):
		return fmt.Sprintf("subsets %v %v, fresh %v %v", t.subs, t.firstSub, fresh.subs, fresh.firstSub)
	}
	return ""
}

// deltaChecks counts the §3.2 tests checked against the reference.
var deltaChecks atomic.Int64

// checkDelta holds one §3.2 test's counts against refDeltaCounts over
// applyRenames' renamed copy, and the table it read against a fresh
// one, panicking on a mismatch as checkGraphCache does.
func checkDelta(t *deltaTable, renames map[string]string, subs, total int) {
	deltaChecks.Add(1)
	wantSubs, wantTotal := refDeltaCounts(applyRenames(t.sys, renames), t.basePred, t.baseSub)
	if subs != wantSubs || total != wantTotal {
		panic(fmt.Sprintf("solver: delta table counted (%d, %d) under %v, renamed copy counts (%d, %d); system:\n%s",
			subs, total, renames, wantSubs, wantTotal, t.sys))
	}
	if d := tableDiff(t); d != "" {
		panic(fmt.Sprintf("solver: delta table changed by %v: %s", renames, d))
	}
}

// Every solver test checks every §3.2 test against the reference.
func init() { deltaCheck = checkDelta }

// randomDeltaCase builds a small system over symbols s0..s5 whose
// conjuncts repeat shapes, so random renames collapse conjuncts onto
// each other, onto tautologies and onto baseline members.
func randomDeltaCase(rng *rand.Rand) (*constraint.System, map[constraint.Pred]bool, map[constraint.Subset]bool, map[string]string) {
	sym := func() string { return fmt.Sprintf("s%d", rng.Intn(6)) }
	expr := func() dpl.Expr {
		switch rng.Intn(4) {
		case 0:
			return img(v(sym()), "f", "S")
		case 1:
			return dpl.BinExpr{Op: dpl.OpUnion, L: v(sym()), R: v(sym())}
		default:
			return v(sym())
		}
	}
	sys := &constraint.System{}
	for n := rng.Intn(8); n > 0; n-- {
		kinds := []constraint.PredKind{constraint.Part, constraint.Disj, constraint.Comp}
		p := constraint.Pred{Kind: kinds[rng.Intn(3)], E: v(sym())}
		if p.Kind != constraint.Disj {
			p.Region = "R"
		}
		sys.Preds = append(sys.Preds, p)
	}
	for n := rng.Intn(10); n > 0; n-- {
		sys.Subsets = append(sys.Subsets, constraint.Subset{L: expr(), R: expr()})
	}
	// The baseline holds some of the system's conjuncts and some
	// conjuncts over the symbols renames map to.
	basePred, baseSub := map[constraint.Pred]bool{}, map[constraint.Subset]bool{}
	for _, p := range sys.Preds {
		if rng.Intn(4) == 0 {
			basePred[p] = true
		}
	}
	for _, c := range sys.Subsets {
		if rng.Intn(4) == 0 {
			baseSub[c] = true
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		basePred[constraint.Pred{Kind: constraint.Disj, E: v(sym())}] = true
		baseSub[constraint.Subset{L: expr(), R: v(sym())}] = true
	}
	renames := map[string]string{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if from, to := sym(), sym(); from != to {
			renames[from] = to
		}
	}
	return sys, basePred, baseSub, renames
}

// TestDeltaTableRandomRenames holds the delta table against the renamed
// copy on random systems and rename maps, and requires the cases the
// table must get right to have occurred: renames that create
// tautologies, collapse conjuncts into duplicates, land on baseline
// conjuncts, and chain (a→b, b→c).
func TestDeltaTableRandomRenames(t *testing.T) {
	const cases = 5000
	rng := rand.New(rand.NewSource(1))
	var tautologies, duplicates, baseHits, chains int
	for iter := 0; iter < cases; iter++ {
		sys, basePred, baseSub, renames := randomDeltaCase(rng)
		tab := newDeltaTable(sys, basePred, baseSub)
		before := tableDiff(tab)
		if before != "" {
			t.Fatalf("case %d: fresh tables differ: %s", iter, before)
		}
		subs, total, renamed := tab.renamedCounts(renames)
		checkDelta(tab, renames, subs, total)
		if (renamed != nil) != chainedRenames(renames) {
			t.Fatalf("case %d: renamed system returned = %v for %v", iter, renamed != nil, renames)
		}

		if chainedRenames(renames) {
			chains++
			continue
		}
		images := map[constraint.Subset]int{}
		for _, c := range sys.Subsets {
			if dpl.Equal(c.L, c.R) || baseSub[c] {
				continue
			}
			r := constraint.Subset{L: dpl.RenameVars(c.L, renames), R: dpl.RenameVars(c.R, renames)}
			switch {
			case dpl.Equal(r.L, r.R):
				tautologies++
			case baseSub[r]:
				baseHits++
			}
			images[r]++
		}
		originals := map[constraint.Subset]bool{}
		for _, c := range sys.Subsets {
			originals[c] = true
		}
		for r, n := range images {
			if n > 1 && !originals[r] {
				duplicates++
			}
		}
	}
	t.Logf("%d cases: %d tautologies, %d duplicates, %d baseline hits, %d chained maps",
		cases, tautologies, duplicates, baseHits, chains)
	for name, n := range map[string]int{"tautology": tautologies, "duplicate": duplicates, "baseline hit": baseHits, "chained map": chains} {
		if n == 0 {
			t.Errorf("no random case produced a %s", name)
		}
	}
}

// TestDeltaTableChainedRenames pins the chained case on a fixed system:
// a→b, b→c renames a to b and then every b (the renamed a included) to
// c, so both subsets collapse onto one conjunct.
func TestDeltaTableChainedRenames(t *testing.T) {
	sys := &constraint.System{Subsets: []constraint.Subset{
		{L: img(v("a"), "f", "S"), R: v("d")},
		{L: img(v("b"), "f", "S"), R: v("d")},
	}}
	tab := newDeltaTable(sys, map[constraint.Pred]bool{}, map[constraint.Subset]bool{})
	renames := map[string]string{"a": "b", "b": "c"}
	subs, total, renamed := tab.renamedCounts(renames)
	if renamed == nil {
		t.Fatal("chained map was not materialized")
	}
	if subs != 1 || total != 1 {
		t.Errorf("counts (%d, %d), want (1, 1)", subs, total)
	}
	if len(renamed.Subsets) != 1 || renamed.Subsets[0].String() != "image(c, f, S) ⊆ d" {
		t.Errorf("renamed subsets %v", renamed.Subsets)
	}
	checkDelta(tab, renames, subs, total)
}
