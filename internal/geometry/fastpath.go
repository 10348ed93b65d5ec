package geometry

import (
	"math"
	"math/bits"
	"slices"
)

// This file holds the interval-native fast paths of the evaluation
// engine. The public Image/Preimage/ImageMulti/PreimageMulti entry
// points in map.go dispatch here when the map's concrete type admits
// whole-interval arithmetic; the per-element implementations remain as
// the generic fallback and as the reference the differential tests
// compare against.

// imageIdentity computes the image under the identity map: s ∩ codomain.
func imageIdentity(s, codomain IndexSet) IndexSet { return s.Intersect(codomain) }

// affineIntervalImage returns the image of one non-empty interval under
// f(k) = Stride*k + Offset before modulo wrapping, for Stride ∈ {-1, 0, 1}.
func affineIntervalImage(m AffineMap, iv Interval) Interval {
	switch m.Stride {
	case 1:
		return Interval{iv.Lo + m.Offset, iv.Hi + m.Offset}
	case -1:
		// Values -Hi+1+Offset .. -Lo+Offset.
		return Interval{m.Offset - iv.Hi + 1, m.Offset - iv.Lo + 1}
	default: // Stride == 0: every index maps to Offset.
		return Interval{m.Offset, m.Offset + 1}
	}
}

// wrapInterval appends iv wrapped into [0, mod) to out. An interval
// covering a full period collapses to [0, mod).
func wrapInterval(out []Interval, iv Interval, mod int64) []Interval {
	if iv.Len() >= mod {
		return append(out, Interval{0, mod})
	}
	lo := iv.Lo % mod
	if lo < 0 {
		lo += mod
	}
	hi := lo + iv.Len()
	if hi <= mod {
		return append(out, Interval{lo, hi})
	}
	return append(out, Interval{lo, mod}, Interval{0, hi - mod})
}

// affineFastPath reports whether the affine map admits interval-native
// image/preimage computation.
func affineFastPath(m AffineMap) bool {
	return m.Stride == 1 || m.Stride == -1 || m.Stride == 0
}

// imageAffine computes Image(s, m, codomain) one interval at a time.
func imageAffine(s IndexSet, m AffineMap, codomain IndexSet) IndexSet {
	ivs := make([]Interval, 0, len(s.ivs)+1)
	for _, iv := range s.ivs {
		out := affineIntervalImage(m, iv)
		if m.Modulo > 0 {
			ivs = wrapInterval(ivs, out, m.Modulo)
		} else {
			ivs = append(ivs, out)
		}
	}
	img := FromIntervals(ivs...)
	if m.Clamp != nil {
		img = img.Intersect(FromIntervals(*m.Clamp))
	}
	return img.Intersect(codomain)
}

// preimageAffine computes Preimage(domain, m, target) by pulling every
// target interval back through f.
func preimageAffine(domain IndexSet, m AffineMap, target IndexSet) IndexSet {
	// Only values inside the clamp are ever produced.
	if m.Clamp != nil {
		target = target.Intersect(FromIntervals(*m.Clamp))
	}
	if target.Empty() || domain.Empty() {
		return IndexSet{}
	}
	if m.Stride == 0 {
		// f(k) = Offset (mod Modulo) for every k.
		v := m.Offset
		if m.Modulo > 0 {
			v %= m.Modulo
			if v < 0 {
				v += m.Modulo
			}
		}
		if target.Contains(v) {
			return domain
		}
		return IndexSet{}
	}
	if m.Modulo <= 0 {
		ivs := make([]Interval, 0, len(target.ivs))
		for _, t := range target.ivs {
			ivs = append(ivs, pullbackAffine(m, t))
		}
		return FromIntervals(ivs...).Intersect(domain)
	}
	// Periodic case: f(k) = (Stride*k + Offset) mod Modulo. The preimage
	// of each target interval is a period-Modulo family of intervals;
	// enumerate only the periods overlapping the domain's bounds.
	mod := m.Modulo
	target = target.Intersect(Range(0, mod))
	bounds, _ := domain.Bounds()
	var ivs []Interval
	for _, t := range target.ivs {
		base := pullbackAffine(m, t)
		// base + j*Modulo must intersect [bounds.Lo, bounds.Hi).
		jLo := floorDiv(bounds.Lo-base.Hi+1, mod)
		jHi := floorDiv(bounds.Hi-base.Lo-1, mod)
		for j := jLo; j <= jHi; j++ {
			ivs = append(ivs, Interval{base.Lo + j*mod, base.Hi + j*mod})
		}
	}
	return FromIntervals(ivs...).Intersect(domain)
}

// pullbackAffine returns { k | Stride*k + Offset ∈ t } for Stride ∈ {1, -1}.
func pullbackAffine(m AffineMap, t Interval) Interval {
	if m.Stride == 1 {
		return Interval{t.Lo - m.Offset, t.Hi - m.Offset}
	}
	// Stride == -1: -k + Offset ∈ [Lo, Hi) ⇔ k ∈ (Offset-Hi, Offset-Lo].
	return Interval{m.Offset - t.Hi + 1, m.Offset - t.Lo + 1}
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// tableWindow clips iv to a table's index range [0, len(table)) and
// returns the clipped start with the entries it covers: the elements of a
// domain interval past the table's end are out of the map's domain.
func tableWindow[T any](table []T, iv Interval) (int64, []T) {
	lo, hi := max(iv.Lo, 0), min(iv.Hi, int64(len(table)))
	if lo >= hi {
		return lo, nil
	}
	return lo, table[lo:hi]
}

// imageTable computes Image(s, m, codomain) for a TableMap by walking
// the backing slice directly per interval, avoiding the per-element
// interface dispatch of the generic path. Hits within the codomain's
// bounds are marked in a bitmap over their hull, whose runs are read off
// a word at a time: no interval per hit and no sort.
func imageTable(s IndexSet, m TableMap, codomain IndexSet) IndexSet {
	bounds, _ := codomain.Bounds()
	bounds.Lo = max(bounds.Lo, 0) // negative entries are misses
	if bounds.Empty() {
		return IndexSet{}
	}
	lo, hi := bounds.Hi, bounds.Lo // the hull of the hits, empty so far
	for _, iv := range s.ivs {
		_, vals := tableWindow(m.Table, iv)
		for _, v := range vals {
			if bounds.Contains(v) {
				lo, hi = min(lo, v), max(hi, v+1)
			}
		}
	}
	if lo >= hi {
		return IndexSet{}
	}
	span := uint64(hi - lo)
	words := make([]uint64, (span+63)/64)
	for _, iv := range s.ivs {
		_, vals := tableWindow(m.Table, iv)
		for _, v := range vals {
			if d := uint64(v - lo); d < span { // a hit: lo ≤ v < hi
				words[d>>6] |= 1 << (d & 63)
			}
		}
	}
	img := bitmapRuns(words, lo)
	if len(codomain.ivs) > 1 { // hits may fall in the codomain's holes
		img = img.Intersect(codomain)
	}
	return img
}

// bitmapRuns returns the set holding lo+i for every set bit i of words.
// A bit that differs from the one below it starts a run when set and
// ends one when clear, so each word yields its runs in popcount steps.
func bitmapRuns(words []uint64, lo int64) IndexSet {
	runs, below := 0, uint64(0)
	for _, w := range words {
		runs += bits.OnesCount64(w &^ (w<<1 | below))
		below = w >> 63
	}
	ivs := make([]Interval, 0, runs)
	var start int64
	below = 0
	for i, w := range words {
		base := lo + int64(i)*64
		for edges := w ^ (w<<1 | below); edges != 0; edges &= edges - 1 {
			t := int64(bits.TrailingZeros64(edges))
			if w>>t&1 == 1 {
				start = base + t
			} else {
				ivs = append(ivs, Interval{start, base + t})
			}
		}
		below = w >> 63
	}
	if below == 1 {
		ivs = append(ivs, Interval{start, lo + int64(len(words))*64})
	}
	return IndexSet{ivs: ivs}
}

// PreimageTable computes Preimage(domain, m, targets[c]) for every
// colour c in one walk of the domain. A CSR colour table over the hull
// of the targets lists, for each value v, the colours whose target holds
// v, in ascending order; several when the targets alias. It is filled by
// counting, a prefix sum and a cursor pass, and cut to the hull of the
// table's values over the domain, so a small domain never pays for a
// large target. Each domain element k then goes to every colour listed
// for Table[k]; k ascends, so each add is O(1). Negative entries,
// entries in no target and domain elements past the table's end are
// misses.
func PreimageTable(domain IndexSet, m TableMap, targets []IndexSet) []IndexSet {
	out := make([]IndexSet, len(targets))
	hull := Interval{math.MaxInt64, 0} // of the table's values over the domain
	for _, iv := range domain.ivs {
		_, vals := tableWindow(m.Table, iv)
		for _, v := range vals {
			if v >= 0 {
				hull = Interval{min(hull.Lo, v), max(hull.Hi, v+1)}
			}
		}
	}
	thull := Interval{math.MaxInt64, math.MinInt64}
	for _, t := range targets {
		if b, ok := t.Bounds(); ok {
			thull = Interval{min(thull.Lo, b.Lo), max(thull.Hi, b.Hi)}
		}
	}
	hull = hull.Intersect(thull)
	if hull.Empty() {
		return out
	}
	// Counting into off[v-lo+2] and a prefix sum leave v's start at
	// off[v-lo+1]; the cursor pass advances it to v's end, which is v+1's
	// start, so colours[off[v-lo]:off[v-lo+1]] are v's.
	lo, n := hull.Lo, hull.Len()
	off := make([]int, n+2)
	for _, t := range targets {
		for _, iv := range t.ivs {
			iv = iv.Intersect(hull)
			for v := iv.Lo; v < iv.Hi; v++ {
				off[v-lo+2]++
			}
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	colours := make([]int32, off[n+1])
	for c, t := range targets {
		for _, iv := range t.ivs {
			iv = iv.Intersect(hull)
			for v := iv.Lo; v < iv.Hi; v++ {
				colours[off[v-lo+1]] = int32(c)
				off[v-lo+1]++
			}
		}
	}
	bs := make([]Builder, len(targets))
	for _, iv := range domain.ivs {
		k0, vals := tableWindow(m.Table, iv)
		for i, v := range vals {
			if hull.Contains(v) {
				for _, c := range colours[off[v-lo]:off[v-lo+1]] {
					bs[c].Add(k0 + int64(i))
				}
			}
		}
	}
	for c := range bs {
		out[c] = bs[c].Build()
	}
	return out
}

// imageRangeTable computes ImageMulti(s, m, codomain) for a
// RangeTableMap: gather every per-index range, then sort-and-merge once.
func imageRangeTable(s IndexSet, m RangeTableMap, codomain IndexSet) IndexSet {
	var ivs []Interval
	for _, iv := range s.ivs {
		_, rs := tableWindow(m.Ranges, iv)
		for _, r := range rs {
			if !r.Empty() {
				ivs = append(ivs, r)
			}
		}
	}
	return FromIntervals(ivs...).Intersect(codomain)
}

// preimageRangeTable computes PreimageMulti(domain, m, target) for a
// RangeTableMap using a per-index overlap test instead of materializing
// F(k) as a set.
func preimageRangeTable(domain IndexSet, m RangeTableMap, target IndexSet) IndexSet {
	var b Builder
	for _, iv := range domain.ivs {
		k0, rs := tableWindow(m.Ranges, iv)
		for i, r := range rs {
			if target.OverlapsInterval(r) {
				b.Add(k0 + int64(i))
			}
		}
	}
	return b.Build()
}

// UnionAll returns the union of every set in one k-way merge: all
// intervals are collected, sorted, and coalesced once, instead of the
// O(k²) interval copying of a pairwise-union fold.
func UnionAll(sets []IndexSet) IndexSet {
	total := 0
	last := -1
	for i, s := range sets {
		if !s.Empty() {
			total += len(s.ivs)
			last = i
		}
	}
	if total == 0 {
		return IndexSet{}
	}
	if len(sets[last].ivs) == total {
		return sets[last] // only one non-empty input
	}
	ivs := make([]Interval, 0, total)
	for _, s := range sets {
		ivs = append(ivs, s.ivs...)
	}
	slices.SortFunc(ivs, func(a, b Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		default:
			return 0
		}
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if prev := &out[len(out)-1]; iv.Lo <= prev.Hi {
			if iv.Hi > prev.Hi {
				prev.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return IndexSet{ivs: out}
}

// DisjointAll reports whether the sets are pairwise disjoint, in one
// sorted sweep over all intervals instead of an O(k²) comparison (or a
// fold of quadratic-copy unions).
func DisjointAll(sets []IndexSet) bool {
	total := 0
	for _, s := range sets {
		total += len(s.ivs)
	}
	if total <= 1 {
		return true
	}
	ivs := make([]Interval, 0, total)
	for _, s := range sets {
		ivs = append(ivs, s.ivs...)
	}
	slices.SortFunc(ivs, func(a, b Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		default:
			return 0
		}
	})
	for i := 1; i < len(ivs); i++ {
		// Within one set intervals never touch, so any overlap between
		// sorted neighbors is a cross-set overlap.
		if ivs[i].Lo < ivs[i-1].Hi {
			return false
		}
	}
	return true
}
