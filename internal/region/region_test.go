package region

import (
	"slices"
	"strings"
	"testing"

	"autopart/internal/geometry"
)

func TestRegionFields(t *testing.T) {
	r := New("Cells", 10)
	if r.Name() != "Cells" || r.Size() != 10 {
		t.Fatalf("Name/Size = %s/%d", r.Name(), r.Size())
	}
	if got := r.Space().String(); got != "{0..9}" {
		t.Errorf("Space = %s", got)
	}

	r.AddScalarField("vel")
	r.AddIndexField("next")
	r.AddRangeField("span")

	if !r.HasField("vel") || !r.HasField("next") || !r.HasField("span") {
		t.Error("HasField should find all added fields")
	}
	if r.HasField("bogus") {
		t.Error("HasField found a nonexistent field")
	}

	if k, ok := r.FieldKindOf("vel"); !ok || k != ScalarField {
		t.Errorf("FieldKindOf(vel) = %v, %v", k, ok)
	}
	if k, ok := r.FieldKindOf("next"); !ok || k != IndexField {
		t.Errorf("FieldKindOf(next) = %v, %v", k, ok)
	}
	if k, ok := r.FieldKindOf("span"); !ok || k != RangeField {
		t.Errorf("FieldKindOf(span) = %v, %v", k, ok)
	}
	if _, ok := r.FieldKindOf("bogus"); ok {
		t.Error("FieldKindOf found a nonexistent field")
	}

	names := r.FieldNames()
	if len(names) != 3 || names[0] != "next" || names[1] != "span" || names[2] != "vel" {
		t.Errorf("FieldNames = %v", names)
	}

	// Index fields start null.
	for i, v := range r.Index("next") {
		if v != -1 {
			t.Fatalf("next[%d] = %d, want -1", i, v)
		}
	}
}

func TestFieldKindStrings(t *testing.T) {
	if ScalarField.String() != "scalar" || IndexField.String() != "index" || RangeField.String() != "range" {
		t.Error("FieldKind strings wrong")
	}
	if !strings.Contains(FieldKind(42).String(), "42") {
		t.Error("unknown FieldKind should include the number")
	}
}

func TestRegionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := New("R", 4)
	r.AddScalarField("x")
	mustPanic("duplicate field", func() { r.AddIndexField("x") })
	mustPanic("negative size", func() { New("bad", -1) })
	mustPanic("wrong kind", func() { r.Index("x") })
	mustPanic("missing scalar", func() { r.Scalar("nope") })
	mustPanic("missing ranges", func() { r.Ranges("nope") })
}

func TestPointerAndRangeMaps(t *testing.T) {
	r := New("Particles", 4)
	r.AddIndexField("cell")
	copy(r.Index("cell"), []int64{2, 0, 2, -1})

	m := r.PointerMap("cell")
	if m.MapName() != "Particles[·].cell" {
		t.Errorf("MapName = %q", m.MapName())
	}
	if v, ok := m.Apply(0); !ok || v != 2 {
		t.Errorf("Apply(0) = %d, %v", v, ok)
	}
	if _, ok := m.Apply(3); ok {
		t.Error("null pointer should be out of domain")
	}

	s := New("Ranges", 2)
	s.AddRangeField("r")
	s.Ranges("r")[0] = geometry.Interval{Lo: 0, Hi: 3}
	s.Ranges("r")[1] = geometry.Interval{Lo: 3, Hi: 4}
	mm := s.RangeMap("r")
	if got := mm.ApplyMulti(0).String(); got != "{0..2}" {
		t.Errorf("ApplyMulti(0) = %s", got)
	}
}

func TestCloneAndSameData(t *testing.T) {
	r := New("R", 3)
	r.AddScalarField("x")
	r.AddIndexField("p")
	r.AddRangeField("g")
	r.Scalar("x")[1] = 3.5
	r.Index("p")[2] = 1
	r.Ranges("g")[0] = geometry.Interval{Lo: 1, Hi: 2}

	c := r.CloneData()
	if same, diff := r.SameData(c); !same {
		t.Fatalf("clone differs: %s", diff)
	}
	c.Scalar("x")[0] = 9
	if same, _ := r.SameData(c); same {
		t.Error("SameData should detect scalar difference")
	}
	c.Scalar("x")[0] = 0
	c.Index("p")[0] = 7
	if same, _ := r.SameData(c); same {
		t.Error("SameData should detect index difference")
	}
	c.Index("p")[0] = -1
	c.Ranges("g")[1] = geometry.Interval{Lo: 0, Hi: 1}
	if same, _ := r.SameData(c); same {
		t.Error("SameData should detect range difference")
	}
}

// TestCopyWindow checks that a window keeps the region's name, size and
// fields, holds exactly the copied set densely in ascending order, and is
// refused by every operation that would index it as a whole region.
func TestCopyWindow(t *testing.T) {
	r := New("R", 6)
	r.AddScalarField("x")
	r.AddIndexField("p")
	r.AddRangeField("g")
	for i := range r.Scalar("x") {
		r.Scalar("x")[i] = float64(i)
	}
	set := geometry.FromIntervals(geometry.Interval{Lo: 1, Hi: 3}, geometry.Interval{Lo: 4, Hi: 6})
	w := r.CopyWindow(set)
	if w.Name() != "R" || w.Size() != 6 || !w.Window().Set().Equal(set) || len(w.FieldNames()) != 3 {
		t.Fatalf("window: name %s size %d window %s fields %v", w.Name(), w.Size(), w.Window().Set(), w.FieldNames())
	}
	if got := w.Scalar("x"); !slices.Equal(got, []float64{1, 2, 4, 5}) {
		t.Errorf("window scalars = %v, want [1 2 4 5]", got)
	}
	if got := len(w.Index("p")) + len(w.Ranges("g")); got != 8 {
		t.Errorf("window index and range fields hold %d slots, want 8", got)
	}
	w.Scalar("x")[0] = 9
	if r.Scalar("x")[1] != 1 {
		t.Error("writing the window changed the region it was copied from")
	}
	if inner := w.CopyWindow(geometry.FromSlice([]int64{2, 4})); !slices.Equal(inner.Scalar("x"), []float64{2, 4}) {
		t.Errorf("window of a window = %v, want [2 4]", inner.Scalar("x"))
	}
	if empty := r.CopyWindow(geometry.EmptySet()); len(empty.Index("p")) != 0 {
		t.Error("empty window holds elements")
	}
	if same, diff := r.SameData(w); same || !strings.Contains(diff, "window {1..2 4..5}") {
		t.Errorf("SameData(window) = %v, %q; want a refusal naming the window", same, diff)
	}
	for name, fn := range map[string]func(){
		"CloneData":          func() { w.CloneData() },
		"PointerMap":         func() { w.PointerMap("p") },
		"RangeMap":           func() { w.RangeMap("g") },
		"CopyWindow beyond":  func() { w.CopyWindow(geometry.Range(0, 2)) },
		"CopyWindow the gap": func() { w.CopyWindow(geometry.Range(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a window: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualPartition(t *testing.T) {
	r := New("R", 10)
	p := Equal("P", r, 3)
	if p.NumSubs() != 3 {
		t.Fatalf("NumSubs = %d", p.NumSubs())
	}
	// 10 = 4 + 3 + 3.
	wants := []string{"{0..3}", "{4..6}", "{7..9}"}
	for i, w := range wants {
		if got := p.Sub(i).String(); got != w {
			t.Errorf("Sub(%d) = %s, want %s", i, got, w)
		}
	}
	if !p.IsDisjoint() || !p.IsComplete() {
		t.Error("equal partition must be disjoint and complete")
	}
	if got := p.UnionAll(); !got.Equal(r.Space()) {
		t.Errorf("UnionAll = %s", got)
	}
}

func TestEqualPartitionMoreColorsThanElements(t *testing.T) {
	r := New("R", 2)
	p := Equal("P", r, 4)
	if p.NumSubs() != 4 {
		t.Fatalf("NumSubs = %d", p.NumSubs())
	}
	if p.Sub(0).Len() != 1 || p.Sub(1).Len() != 1 || !p.Sub(2).Empty() || !p.Sub(3).Empty() {
		t.Errorf("subs = %v %v %v %v", p.Sub(0), p.Sub(1), p.Sub(2), p.Sub(3))
	}
	if !p.IsDisjoint() || !p.IsComplete() {
		t.Error("equal partition must be disjoint and complete")
	}
}

func TestImagePreimagePartitions(t *testing.T) {
	particles := New("Particles", 6)
	particles.AddIndexField("cell")
	copy(particles.Index("cell"), []int64{0, 0, 1, 1, 2, 2})
	cells := New("Cells", 3)

	p1 := Equal("P1", particles, 2) // {0..2}, {3..5}
	p2 := Image("P2", p1, particles.PointerMap("cell"), cells)
	if got := p2.Sub(0).String(); got != "{0..1}" {
		t.Errorf("P2[0] = %s", got)
	}
	if got := p2.Sub(1).String(); got != "{1..2}" {
		t.Errorf("P2[1] = %s", got)
	}
	if p2.Parent() != cells {
		t.Error("image partition parent should be Cells")
	}
	if p2.IsDisjoint() {
		t.Error("this image partition overlaps at cell 1")
	}
	if !p2.IsComplete() {
		t.Error("image covers all cells here")
	}

	// Preimage of an equal partition of cells.
	pc := Equal("PC", cells, 3)
	pp := Preimage("PP", particles, particles.PointerMap("cell"), pc)
	wants := []string{"{0..1}", "{2..3}", "{4..5}"}
	for i, w := range wants {
		if got := pp.Sub(i).String(); got != w {
			t.Errorf("PP[%d] = %s, want %s", i, got, w)
		}
	}
	if !pp.IsDisjoint() || !pp.IsComplete() {
		t.Error("preimage of a disjoint complete partition under a total function is disjoint and complete")
	}
}

func TestImageMultiPartition(t *testing.T) {
	y := New("Y", 4)
	ranges := New("Ranges", 4)
	ranges.AddRangeField("span")
	spans := ranges.Ranges("span")
	spans[0] = geometry.Interval{Lo: 0, Hi: 2}
	spans[1] = geometry.Interval{Lo: 2, Hi: 3}
	spans[2] = geometry.Interval{Lo: 3, Hi: 6}
	spans[3] = geometry.Interval{Lo: 6, Hi: 8}
	mat := New("Mat", 8)

	py := Equal("PY", y, 2)
	// Identify Y's colors with Ranges' rows via identity image.
	pr := Image("PR", py, geometry.IdentityMap{}, ranges)
	pm := ImageMulti("PM", pr, ranges.RangeMap("span"), mat)
	if got := pm.Sub(0).String(); got != "{0..2}" {
		t.Errorf("PM[0] = %s", got)
	}
	if got := pm.Sub(1).String(); got != "{3..7}" {
		t.Errorf("PM[1] = %s", got)
	}
	if !pm.IsDisjoint() || !pm.IsComplete() {
		t.Error("CSR row partition should be disjoint and complete here")
	}

	back := PreimageMulti("PB", ranges, ranges.RangeMap("span"), pm)
	if got := back.Sub(0).String(); got != "{0..1}" {
		t.Errorf("PB[0] = %s", got)
	}
	if got := back.Sub(1).String(); got != "{2..3}" {
		t.Errorf("PB[1] = %s", got)
	}
}

func TestPartitionCombinators(t *testing.T) {
	r := New("R", 8)
	a := NewPartition("A", r, []geometry.IndexSet{geometry.Range(0, 4), geometry.Range(4, 8)})
	b := NewPartition("B", r, []geometry.IndexSet{geometry.Range(2, 6), geometry.Range(6, 8)})

	u := Union("U", a, b)
	if got := u.Sub(0).String(); got != "{0..5}" {
		t.Errorf("U[0] = %s", got)
	}
	i := Intersect("I", a, b)
	if got := i.Sub(0).String(); got != "{2..3}" {
		t.Errorf("I[0] = %s", got)
	}
	d := Subtract("D", a, b)
	if got := d.Sub(0).String(); got != "{0..1}" {
		t.Errorf("D[0] = %s", got)
	}
	if got := d.Sub(1).String(); got != "{4..5}" {
		t.Errorf("D[1] = %s", got)
	}

	if !i.SubsetOf(a) || !i.SubsetOf(b) || !d.SubsetOf(a) || !a.SubsetOf(u) {
		t.Error("combinator subset relations violated")
	}
}

func TestPartitionChecksAndPanics(t *testing.T) {
	r := New("R", 8)
	s := New("S", 8)
	a := Equal("A", r, 2)
	b := Equal("B", s, 2)
	c := Equal("C", r, 3)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("different parents", func() { Union("U", a, b) })
	mustPanic("color mismatch", func() { Union("U", a, c) })
	mustPanic("escaping subregion", func() {
		NewPartition("X", r, []geometry.IndexSet{geometry.Range(0, 100)})
	})
	mustPanic("bad color count", func() { Equal("E", r, 0) })

	if a.SubsetOf(b) {
		t.Error("partitions of different regions are never subsets")
	}
	if a.SamePartition(c) {
		t.Error("different color spaces are not the same partition")
	}
	if !a.SamePartition(a.Rename("A2")) {
		t.Error("renamed partition should compare equal")
	}
	if a.Rename("A2").Name() != "A2" {
		t.Error("Rename should change the name")
	}
}

func TestPartitionString(t *testing.T) {
	r := New("R", 4)
	p := Equal("P", r, 2)
	s := p.String()
	if !strings.Contains(s, "P = partition of R") || !strings.Contains(s, "[0]") {
		t.Errorf("String = %q", s)
	}
}

func TestSubsetOfRequiresEnoughColors(t *testing.T) {
	r := New("R", 8)
	small := NewPartition("S", r, []geometry.IndexSet{geometry.Range(0, 2)})
	big := NewPartition("B", r, []geometry.IndexSet{geometry.Range(0, 4), geometry.Range(4, 8)})
	if !small.SubsetOf(big) {
		t.Error("small ⊆ big with fewer colors should hold")
	}
	if big.SubsetOf(small) {
		t.Error("big has more colors than small; subset must fail")
	}
}

func TestDisjointify(t *testing.T) {
	r := New("R", 10)
	aliased := NewPartition("A", r, []geometry.IndexSet{
		geometry.Range(0, 6),
		geometry.Range(4, 10),
	})
	d := Disjointify("D", aliased)
	if !d.IsDisjoint() {
		t.Fatal("Disjointify must produce a disjoint partition")
	}
	// Coverage is preserved; overlap goes to the first color.
	if !d.UnionAll().Equal(aliased.UnionAll()) {
		t.Error("coverage changed")
	}
	if got := d.Sub(0).String(); got != "{0..5}" {
		t.Errorf("D[0] = %s", got)
	}
	if got := d.Sub(1).String(); got != "{6..9}" {
		t.Errorf("D[1] = %s", got)
	}
	// Already-disjoint partitions are unchanged.
	eq := Equal("E", r, 3)
	if !Disjointify("E2", eq).SamePartition(eq) {
		t.Error("disjoint input should be unchanged")
	}
}
