package region

import (
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/par"
)

// TestParallelMatchesSequential evaluates every partition operator twice
// — once inline, once over a forced 4-worker pool — and requires
// identical subsets. On single-CPU machines this is the only test that
// actually exercises the concurrent path in this package.
func TestParallelMatchesSequential(t *testing.T) {
	build := func() map[string]*Partition {
		r := New("R", 4096)
		s := New("S", 4096)
		p := Equal("p", r, 16)
		q := Preimage("q", r, geometry.AffineMap{Name: "shift", Stride: 1, Offset: 3, Modulo: 4096}, p)
		out := map[string]*Partition{
			"p":        p,
			"q":        q,
			"union":    Union("u", p, q),
			"inter":    Intersect("i", p, q),
			"minus":    Subtract("m", p, q),
			"image":    Image("img", p, geometry.AffineMap{Name: "neg", Stride: -1, Offset: 4095}, s),
			"preimage": Preimage("pre", s, geometry.AffineMap{Name: "wrap", Stride: 1, Offset: 17, Modulo: 4096}, p),
			"disj":     Disjointify("d", Union("u2", q, p)),
		}
		ranges := make([]geometry.Interval, 4096)
		for i := range ranges {
			lo := int64(i * 3 % 4000)
			ranges[i] = geometry.Interval{Lo: lo, Hi: lo + 5}
		}
		rt := geometry.RangeTableMap{Name: "rt", Ranges: ranges}
		out["imulti"] = ImageMulti("im", p, rt, s)
		out["pmulti"] = PreimageMulti("pm", r, rt, p)
		table := make([]int64, 4096)
		for i := range table {
			table[i] = int64(i*37%4103) - 3 // a few negative, a few past S
		}
		tm := geometry.TableMap{Name: "tm", Table: table}
		out["itable"] = Image("it", p, tm, s)
		out["ptable"] = Preimage("pt", r, tm, Union("alias", p, q))
		return out
	}

	defer par.SetWorkers(0)
	par.SetWorkers(1)
	seq := build()
	par.SetWorkers(4)
	parl := build()

	for name, sp := range seq {
		pp := parl[name]
		if sp.NumSubs() != pp.NumSubs() {
			t.Fatalf("%s: NumSubs %d vs %d", name, sp.NumSubs(), pp.NumSubs())
		}
		for i := 0; i < sp.NumSubs(); i++ {
			if !sp.Sub(i).Equal(pp.Sub(i)) {
				t.Errorf("%s sub %d: sequential %s, parallel %s", name, i, sp.Sub(i), pp.Sub(i))
			}
		}
		if sp.IsDisjoint() != pp.IsDisjoint() || sp.IsComplete() != pp.IsComplete() {
			t.Errorf("%s: disjoint/complete flags differ", name)
		}
		if !sp.UnionAll().Equal(pp.UnionAll()) {
			t.Errorf("%s: UnionAll differs", name)
		}
	}
}

// TestUnionCacheSharedByRename asserts Rename reuses the lazily computed
// union, disjointness and owner view rather than recomputing them.
func TestUnionCacheSharedByRename(t *testing.T) {
	r := New("R", 128)
	p := Equal("p", r, 4)
	u := p.UnionAll()
	renamed := p.Rename("p2")
	if !renamed.UnionAll().Equal(u) {
		t.Fatalf("renamed union %s != %s", renamed.UnionAll(), u)
	}
	if p.union == nil || renamed.union == nil || p.union != renamed.union {
		t.Fatal("Rename should share the union cache")
	}
	if !p.IsDisjoint() || !renamed.union.disjoint {
		t.Fatal("Rename should share the cached disjointness")
	}
	if p.OwnerView() != p {
		t.Fatal("a disjoint partition should be its own owner view")
	}
	aliased := NewPartition("a", r, []geometry.IndexSet{geometry.Range(0, 64), geometry.Range(32, 128)})
	own, renamedOwn := aliased.OwnerView(), aliased.Rename("a2").OwnerView()
	if own.Name() != "a_own" || renamedOwn.Name() != "a2_own" || !own.SamePartition(Disjointify("d", aliased)) ||
		&own.Subs()[0] != &renamedOwn.Subs()[0] {
		t.Fatalf("owner views %v and %v are not one cached disjointification", own, renamedOwn)
	}
}
