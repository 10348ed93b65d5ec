package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSet builds a bounded random index set from generator-provided
// bytes: each byte pair becomes an interval inside [-8, 56).
func randSet(spec []byte) IndexSet {
	var b Builder
	for i := 0; i+1 < len(spec); i += 2 {
		lo := int64(spec[i]%64) - 8
		b.AddInterval(Interval{lo, lo + int64(spec[i+1]%9)})
	}
	return b.Build()
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
}

// TestImagePreimageAffineDifferential asserts the interval-native
// affine paths match the per-element reference for every stride the
// fast path claims, with random clamps and moduli (including partial
// maps via clamp and out-of-codomain values via a random codomain).
func TestImagePreimageAffineDifferential(t *testing.T) {
	prop := func(sSpec, codSpec []byte, offset int8, strideSel, clampSel uint8, clampLo int8, clampLen, modSel uint8) bool {
		s := randSet(sSpec)
		cod := randSet(codSpec)
		m := AffineMap{Name: "f", Offset: int64(offset)}
		m.Stride = int64(strideSel%3) - 1 // -1, 0, 1
		if clampSel%2 == 0 {
			m.Clamp = &Interval{int64(clampLo), int64(clampLo) + int64(clampLen%24)}
		}
		if modSel%3 == 0 {
			m.Modulo = int64(modSel%29) + 1
		}
		if !affineFastPath(m) {
			t.Fatalf("stride %d should take the fast path", m.Stride)
		}
		img := imageAffine(s, m, cod)
		if want := imageGeneric(s, m, cod); !img.Equal(want) {
			t.Logf("image mismatch: map=%+v s=%s cod=%s got=%s want=%s", m, s, cod, img, want)
			return false
		}
		pre := preimageAffine(s, m, cod)
		if want := preimageGeneric(s, m, cod); !pre.Equal(want) {
			t.Logf("preimage mismatch: map=%+v dom=%s target=%s got=%s want=%s", m, s, cod, pre, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestImagePreimageTableDifferential covers TableMap batched paths,
// including negative (out-of-domain) entries and indices outside the
// table bounds. Besides short random tables it draws descending and
// random tables of a few hundred entries whose values start above 0, so
// the image bitmap's hull starts above 0 and its runs cross 64-bit words.
func TestImagePreimageTableDifferential(t *testing.T) {
	prop := func(sSpec, codSpec, tableSpec []byte, shape uint8, seed int64) bool {
		s := randSet(sSpec)
		cod := randSet(codSpec)
		var table []int64
		switch shape % 3 {
		case 0:
			table = make([]int64, len(tableSpec))
			for i, v := range tableSpec {
				table[i] = int64(v%40) - 4 // ~10% out of domain
			}
		default:
			r := rand.New(rand.NewSource(seed))
			base := 1 + r.Int63n(100)
			table = make([]int64, 200+r.Intn(300))
			for i := range table {
				if shape%3 == 1 {
					table[i] = base + int64(len(table)-i)
				} else {
					table[i] = base + r.Int63n(int64(len(table)))
				}
				if r.Intn(10) == 0 {
					table[i] = -1 - table[i]
				}
			}
			s = randWideSet(r, int64(len(table))+16)
			cod = randWideSet(r, base+int64(len(table))+16)
		}
		m := TableMap{Name: "t", Table: table}
		if got, want := imageTable(s, m, cod), imageGeneric(s, m, cod); !got.Equal(want) {
			t.Logf("image mismatch: s=%s got=%s want=%s", s, got, want)
			return false
		}
		if got, want := PreimageTable(s, m, []IndexSet{cod})[0], preimageGeneric(s, m, cod); !got.Equal(want) {
			t.Logf("preimage mismatch: dom=%s got=%s want=%s", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// randWideSet returns a random set inside [-8, span) of runs up to 150
// long, so that the set's runs cross 64-bit words.
func randWideSet(r *rand.Rand, span int64) IndexSet {
	var b Builder
	for i := r.Intn(6); i >= 0; i-- {
		lo := r.Int63n(span+8) - 8
		b.AddInterval(Interval{lo, min(lo+1+r.Int63n(150), span)})
	}
	return b.Build()
}

// TestPreimageTableMatchesPerColour holds the one-pass table preimage
// over all colours against preimageGeneric run colour by colour, on
// random tables with negative entries and entries at or past the target
// size, shorter and longer than the domain, and on disjoint, aliased
// (elements in 2–3 colours), partly empty and one-colour sources.
func TestPreimageTableMatchesPerColour(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Int63n(300) // the sources' parent is [0, size)
		table := make([]int64, r.Int63n(2*size+1))
		for i := range table {
			table[i] = r.Int63n(size+size/2+2) - size/4 - 1
		}
		dom := Range(0, r.Int63n(2*size+1))
		if r.Intn(3) == 0 {
			dom = randWideSet(r, 2*size)
		}
		kind := []string{"disjoint", "aliased", "empty", "one"}[seed%4]
		colours := 1 + r.Intn(12)
		if kind == "one" {
			colours = 1
		}
		bs := make([]Builder, colours)
		for v := int64(0); v < size; v++ {
			switch kind {
			case "aliased":
				for k := 2 + r.Intn(2); k > 0; k-- {
					bs[r.Intn(colours)].Add(v)
				}
			case "empty":
				if c := r.Intn(colours); c%2 == 0 {
					bs[c].Add(v)
				}
			default:
				if r.Intn(8) > 0 { // leave some holes
					bs[int(v)*colours/int(size)].Add(v)
				}
			}
		}
		targets := make([]IndexSet, colours)
		for c := range bs {
			targets[c] = bs[c].Build()
		}
		m := TableMap{Name: "t", Table: table}
		got := PreimageTable(dom, m, targets)
		for c, target := range targets {
			if want := preimageGeneric(dom, m, target); !got[c].Equal(want) {
				t.Fatalf("seed %d (%s), colour %d: dom=%s target=%s got=%s want=%s",
					seed, kind, c, dom, target, got[c], want)
			}
		}
	}
}

// TestRangeTableDifferential covers the batched RangeTableMap paths,
// including empty per-index ranges and out-of-table indices.
func TestRangeTableDifferential(t *testing.T) {
	prop := func(sSpec, codSpec, rangeSpec []byte) bool {
		s := randSet(sSpec)
		cod := randSet(codSpec)
		ranges := make([]Interval, len(rangeSpec)/2)
		for i := range ranges {
			lo := int64(rangeSpec[2*i]%48) - 4
			ranges[i] = Interval{lo, lo + int64(rangeSpec[2*i+1]%7) - 1} // sometimes empty
		}
		m := RangeTableMap{Name: "r", Ranges: ranges}
		if got, want := imageRangeTable(s, m, cod), imageMultiGeneric(s, m, cod); !got.Equal(want) {
			t.Logf("IMAGE mismatch: s=%s got=%s want=%s", s, got, want)
			return false
		}
		if got, want := preimageRangeTable(s, m, cod), preimageMultiGeneric(s, m, cod); !got.Equal(want) {
			t.Logf("PREIMAGE mismatch: dom=%s got=%s want=%s", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestLiftedMultiDispatch asserts the MultiMap entry points route
// lifted single-valued maps through the same results as the generic
// multi evaluation.
func TestLiftedMultiDispatch(t *testing.T) {
	prop := func(sSpec, codSpec []byte, offset int8, modSel uint8) bool {
		s := randSet(sSpec)
		cod := randSet(codSpec)
		m := AffineMap{Name: "f", Stride: 1, Offset: int64(offset)}
		if modSel%2 == 0 {
			m.Modulo = int64(modSel%17) + 1
		}
		lifted := Lift(m)
		if got, want := ImageMulti(s, lifted, cod), imageMultiGeneric(s, lifted, cod); !got.Equal(want) {
			return false
		}
		if got, want := PreimageMulti(s, lifted, cod), preimageMultiGeneric(s, lifted, cod); !got.Equal(want) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestUnionAllDisjointAllDifferential compares the k-way merge helpers
// against pairwise folds, including empty inputs and empty members.
func TestUnionAllDisjointAllDifferential(t *testing.T) {
	prop := func(specs [][]byte) bool {
		sets := make([]IndexSet, len(specs))
		for i, spec := range specs {
			sets[i] = randSet(spec)
		}
		var union IndexSet
		for _, s := range sets {
			union = union.Union(s)
		}
		if got := UnionAll(sets); !got.Equal(union) {
			t.Logf("UnionAll mismatch: got=%s want=%s", got, union)
			return false
		}
		pairwise := true
	outer:
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if !sets[i].Disjoint(sets[j]) {
					pairwise = false
					break outer
				}
			}
		}
		if got := DisjointAll(sets); got != pairwise {
			t.Logf("DisjointAll = %v, pairwise = %v (sets %v)", got, pairwise, sets)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestUnionAllEdgeCases(t *testing.T) {
	if !UnionAll(nil).Empty() {
		t.Error("UnionAll(nil) should be empty")
	}
	if !UnionAll([]IndexSet{{}, {}}).Empty() {
		t.Error("UnionAll of empties should be empty")
	}
	one := Range(3, 9)
	if got := UnionAll([]IndexSet{{}, one, {}}); !got.Equal(one) {
		t.Errorf("UnionAll single = %s", got)
	}
	if !DisjointAll(nil) || !DisjointAll([]IndexSet{{}, {}}) {
		t.Error("empty inputs are trivially disjoint")
	}
}

func TestOverlapsInterval(t *testing.T) {
	s := FromIntervals(Interval{0, 4}, Interval{10, 12})
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Interval{4, 10}, false},
		{Interval{3, 5}, true},
		{Interval{11, 11}, false}, // empty
		{Interval{-5, 0}, false},
		{Interval{12, 20}, false},
		{Interval{0, 1}, true},
		{Interval{11, 12}, true},
	}
	for _, c := range cases {
		if got := s.OverlapsInterval(c.iv); got != c.want {
			t.Errorf("OverlapsInterval(%s) = %v, want %v", c.iv, got, c.want)
		}
	}
}
