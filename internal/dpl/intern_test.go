package dpl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestInternStructuralIdentity pins the sharded interner's contract:
// structurally equal expressions share one id no matter how they were
// constructed, and structurally distinct expressions never do.
func TestInternStructuralIdentity(t *testing.T) {
	mk := func() Expr {
		return ImageExpr{Of: Var{Name: "P1"}, Func: "cell", Region: "Cells"}
	}
	a, b := mk(), mk()
	if ID(a) != ID(b) {
		t.Error("equal ImageExprs got distinct ids")
	}

	nested1 := BinExpr{Op: OpUnion, L: mk(), R: Var{Name: "P2"}}
	nested2 := BinExpr{Op: OpUnion, L: mk(), R: Var{Name: "P2"}}
	if ID(nested1) != ID(nested2) {
		t.Error("equal BinExprs got distinct ids")
	}
	if ID(nested1) == ID(a) {
		t.Error("distinct expressions share an id")
	}

	// Same fields, different constructor: image vs IMAGE must not collide
	// even though their shard keys are identical word-for-word.
	multi := ImageMultiExpr{Of: Var{Name: "P1"}, Func: "cell", Region: "Cells"}
	if ID(multi) == ID(a) {
		t.Error("ImageExpr and ImageMultiExpr with equal fields share an id")
	}

	// preimage argument order: same strings, different roles.
	pre1 := PreimageExpr{Region: "Cells", Func: "cell", Of: Var{Name: "P1"}}
	if ID(pre1) == ID(a) {
		t.Error("preimage collides with image")
	}

	if Hash128(a) != Hash128(b) {
		t.Error("equal expressions got distinct content hashes")
	}
}

// TestInternConcurrent interns expressions of all seven constructors,
// symbols and names from many goroutines, each in its own order, to
// catch lost inserts or duplicate ids under the race detector.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const n = 16
	tab := NewTable()
	var names Names
	var exprs []Expr
	var syms, labels []string
	for i := 0; i < n; i++ {
		v := Var{Name: fmt.Sprintf("C%02d", i)}
		img := ImageExpr{Of: v, Func: "f", Region: "R"}
		pre := PreimageExpr{Region: "R", Func: "f", Of: v}
		exprs = append(exprs, v,
			EqualExpr{Region: fmt.Sprintf("R%02d", i)},
			img, pre,
			ImageMultiExpr{Of: v, Func: "f", Region: "R"},
			PreimageMultiExpr{Region: "R", Func: "f", Of: v},
			BinExpr{Op: OpUnion, L: img, R: pre})
		syms = append(syms, v.Name)
		labels = append(labels, fmt.Sprintf("L%02d", i))
	}
	ids := make([][]uint64, goroutines)
	symIDs := make([][]int32, goroutines)
	nameIDs := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint64, len(exprs))
			symIDs[g] = make([]int32, n)
			nameIDs[g] = make([]int32, n)
			for round := 0; round < 3; round++ {
				for j := range exprs {
					j := (j + g*len(exprs)/goroutines) % len(exprs)
					if g%2 == 1 {
						j = len(exprs) - 1 - j
					}
					ids[g][j] = tab.ID(exprs[j])
				}
				for i := range syms {
					i := (i + g) % n
					symIDs[g][i] = tab.SymID(syms[i])
					nameIDs[g][i] = names.ID(labels[i])
					if got := tab.SymName(symIDs[g][i]); got != syms[i] {
						t.Errorf("SymName(SymID(%q)) = %q", syms[i], got)
					}
					if got := names.Name(nameIDs[g][i]); got != labels[i] {
						t.Errorf("Name(ID(%q)) = %q", labels[i], got)
					}
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]int{}
	for j := range exprs {
		for g := 1; g < goroutines; g++ {
			if ids[g][j] != ids[0][j] {
				t.Fatalf("goroutine %d saw id %d for %s, goroutine 0 saw %d",
					g, ids[g][j], Key(exprs[j]), ids[0][j])
			}
		}
		if prev, ok := seen[ids[0][j]]; ok {
			t.Fatalf("%s and %s share id %d", Key(exprs[prev]), Key(exprs[j]), ids[0][j])
		}
		seen[ids[0][j]] = j
	}
	if got := tab.Entries(); got != len(exprs) {
		t.Errorf("Entries() = %d, want %d distinct expressions", got, len(exprs))
	}
	for _, got := range [][][]int32{symIDs, nameIDs} {
		dense := map[int32]bool{}
		for i := 0; i < n; i++ {
			for g := 1; g < goroutines; g++ {
				if got[g][i] != got[0][i] {
					t.Fatalf("goroutine %d saw name id %d for name %d, goroutine 0 saw %d",
						g, got[g][i], i, got[0][i])
				}
			}
			if id := got[0][i]; id < 0 || id >= n || dense[id] {
				t.Fatalf("name ids %v are not a permutation of 0..%d", got[0], n-1)
			}
			dense[got[0][i]] = true
		}
	}
}

// TestInternInsertCostFlat pins the cost of a first sight: interning
// 1,000 never-seen expressions, or 1,000 new names, allocates about as
// much into a table of 10,000 entries as into one of 1,000. A table
// that copied itself on every insert would allocate ten times as much.
func TestInternInsertCostFlat(t *testing.T) {
	const fresh = 1000
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	exprCost := func(prefill int) uint64 {
		tab := NewTable()
		for i := 0; i < prefill; i++ {
			tab.ID(Var{Name: fmt.Sprintf("old%d", i)})
		}
		if got := tab.Entries(); got != prefill {
			t.Fatalf("prefilled %d entries, want %d", got, prefill)
		}
		es := make([]Expr, fresh)
		for i := range es {
			es[i] = ImageExpr{Of: Var{Name: fmt.Sprintf("new%d", i)}, Func: "f", Region: "R"}
		}
		return allocated(func() {
			for _, e := range es {
				tab.ID(e)
			}
		})
	}
	nameCost := func(prefill int) uint64 {
		var names Names
		for i := 0; i < prefill; i++ {
			names.ID(fmt.Sprintf("old%d", i))
		}
		ns := make([]string, fresh)
		for i := range ns {
			ns[i] = fmt.Sprintf("new%d", i)
		}
		return allocated(func() {
			for _, s := range ns {
				names.ID(s)
			}
		})
	}
	for _, c := range []struct {
		what string
		cost func(int) uint64
	}{{"expressions", exprCost}, {"names", nameCost}} {
		small, large := c.cost(1000), c.cost(10000)
		ratio := float64(large) / float64(small)
		t.Logf("%d new %s: %d B into 1k, %d B into 10k (%.2fx)", fresh, c.what, small, large, ratio)
		if ratio > 2 {
			t.Errorf("%d new %s allocate %.1fx as much into a 10k table as into a 1k one (%d vs %d B), want <= 2x",
				fresh, c.what, ratio, large, small)
		}
	}
}

func TestInternStats(t *testing.T) {
	EnableInternStats(true)
	defer EnableInternStats(false)

	e := ImageExpr{Of: Var{Name: "StatsP"}, Func: "sf", Region: "SR"}
	ID(e) // miss or hit depending on prior tests — just prime it
	EnableInternStats(true)
	for i := 0; i < 10; i++ {
		ID(e)
	}
	stats := InternStats()
	var img, vars *InternShardStat
	for i := range stats {
		switch stats[i].Shard {
		case "image":
			img = &stats[i]
		case "var":
			vars = &stats[i]
		}
	}
	if img == nil || vars == nil {
		t.Fatalf("missing shards in %v", stats)
	}
	if img.Hits < 10 {
		t.Errorf("image shard hits = %d, want >= 10", img.Hits)
	}
	// Each ImageExpr lookup interns its operand first.
	if vars.Hits < 10 {
		t.Errorf("var shard hits = %d, want >= 10", vars.Hits)
	}
	if img.Entries == 0 || vars.Entries == 0 {
		t.Errorf("empty shard entry counts: %+v %+v", img, vars)
	}
	if img.Misses != 0 {
		t.Errorf("warm lookups recorded %d misses", img.Misses)
	}
}

func BenchmarkInternHit(b *testing.B) {
	e := BinExpr{
		Op: OpIntersect,
		L:  ImageExpr{Of: Var{Name: "BP1"}, Func: "bf", Region: "BR"},
		R:  PreimageExpr{Region: "BR", Func: "bg", Of: Var{Name: "BP2"}},
	}
	ID(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ID(e)
	}
}
