// Package geometry provides the index-space primitives used throughout the
// partitioning system: points, intervals, and sparse index sets represented
// as sorted interval lists.
//
// Regions are indexed by dense or sparse sets of int64 indices. An IndexSet
// is the fundamental value manipulated by the DPL operators (image,
// preimage, union, intersection, difference); it is immutable once built.
package geometry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Interval is a half-open range [Lo, Hi) of indices. An Interval with
// Lo >= Hi is empty.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no indices.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Len returns the number of indices in the interval.
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether k lies in the interval.
func (iv Interval) Contains(k int64) bool { return k >= iv.Lo && k < iv.Hi }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	return Interval{lo, hi}
}

// Overlaps reports whether the two intervals share at least one index.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.Intersect(other).Empty()
}

func (iv Interval) String() string {
	if iv.Empty() {
		return "[)"
	}
	return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi)
}

// IndexSet is an immutable set of int64 indices stored as a sorted list of
// disjoint, non-adjacent, non-empty intervals. The zero value is the empty
// set and is ready to use.
type IndexSet struct {
	ivs []Interval
}

// EmptySet returns the empty index set.
func EmptySet() IndexSet { return IndexSet{} }

// Range returns the dense index set [lo, hi).
func Range(lo, hi int64) IndexSet {
	if lo >= hi {
		return IndexSet{}
	}
	return IndexSet{ivs: []Interval{{lo, hi}}}
}

// FromIntervals builds an index set from arbitrary (possibly overlapping,
// unsorted, empty) intervals.
func FromIntervals(ivs ...Interval) IndexSet {
	var b Builder
	for _, iv := range ivs {
		b.AddInterval(iv)
	}
	return b.Build()
}

// FromSlice builds an index set from arbitrary (possibly duplicated,
// unsorted) indices.
func FromSlice(ks []int64) IndexSet {
	var b Builder
	for _, k := range ks {
		b.Add(k)
	}
	return b.Build()
}

// Empty reports whether the set has no elements.
func (s IndexSet) Empty() bool { return len(s.ivs) == 0 }

// Len returns the number of indices in the set.
func (s IndexSet) Len() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// NumIntervals returns the number of maximal runs in the set; a measure of
// the set's sparsity/fragmentation used by the cost model.
func (s IndexSet) NumIntervals() int { return len(s.ivs) }

// Intervals returns the underlying interval list. The caller must not
// modify the returned slice.
func (s IndexSet) Intervals() []Interval { return s.ivs }

// Bounds returns the smallest interval covering the set. The second result
// is false when the set is empty.
func (s IndexSet) Bounds() (Interval, bool) {
	if len(s.ivs) == 0 {
		return Interval{}, false
	}
	return Interval{s.ivs[0].Lo, s.ivs[len(s.ivs)-1].Hi}, true
}

// Contains reports whether k is a member of the set.
func (s IndexSet) Contains(k int64) bool {
	// Binary search for the first interval with Hi > k.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > k })
	return i < len(s.ivs) && s.ivs[i].Contains(k)
}

// OverlapsInterval reports whether the set shares at least one index
// with iv, by binary search.
func (s IndexSet) OverlapsInterval(iv Interval) bool {
	if iv.Empty() {
		return false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > iv.Lo })
	return i < len(s.ivs) && s.ivs[i].Lo < iv.Hi
}

// Equal reports whether the two sets contain exactly the same indices.
func (s IndexSet) Equal(other IndexSet) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i, iv := range s.ivs {
		if iv != other.ivs[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every index of s is also in other. The walk
// starts at other's interval holding s's first index, found by binary
// search, so a small set late in a large one costs little.
func (s IndexSet) SubsetOf(other IndexSet) bool {
	if len(s.ivs) == 0 {
		return true
	}
	j, _ := other.Locate(s.ivs[0].Lo)
	for _, iv := range s.ivs {
		for j < len(other.ivs) && other.ivs[j].Hi <= iv.Lo {
			j++
		}
		if j >= len(other.ivs) || other.ivs[j].Lo > iv.Lo || other.ivs[j].Hi < iv.Hi {
			return false
		}
	}
	return true
}

// Disjoint reports whether the two sets share no index.
func (s IndexSet) Disjoint(other IndexSet) bool {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if s.ivs[i].Overlaps(other.ivs[j]) {
			return false
		}
		if s.ivs[i].Hi <= other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return true
}

// Union returns the set of indices in either set.
func (s IndexSet) Union(other IndexSet) IndexSet {
	if s.Empty() {
		return other
	}
	if other.Empty() {
		return s
	}
	var b Builder
	b.grow(len(s.ivs) + len(other.ivs))
	i, j := 0, 0
	for i < len(s.ivs) || j < len(other.ivs) {
		switch {
		case j >= len(other.ivs) || (i < len(s.ivs) && s.ivs[i].Lo <= other.ivs[j].Lo):
			b.AddInterval(s.ivs[i])
			i++
		default:
			b.AddInterval(other.ivs[j])
			j++
		}
	}
	return b.Build()
}

// Intersect returns the set of indices in both sets.
func (s IndexSet) Intersect(other IndexSet) IndexSet {
	var b Builder
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if ov := s.ivs[i].Intersect(other.ivs[j]); !ov.Empty() {
			b.AddInterval(ov)
		}
		if s.ivs[i].Hi <= other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return b.Build()
}

// Subtract returns the set of indices in s but not in other.
func (s IndexSet) Subtract(other IndexSet) IndexSet {
	if other.Empty() {
		return s
	}
	var b Builder
	j := 0
	for _, iv := range s.ivs {
		lo := iv.Lo
		for j < len(other.ivs) && other.ivs[j].Hi <= lo {
			j++
		}
		k := j
		for k < len(other.ivs) && other.ivs[k].Lo < iv.Hi {
			if other.ivs[k].Lo > lo {
				b.AddInterval(Interval{lo, other.ivs[k].Lo})
			}
			if other.ivs[k].Hi > lo {
				lo = other.ivs[k].Hi
			}
			k++
		}
		if lo < iv.Hi {
			b.AddInterval(Interval{lo, iv.Hi})
		}
	}
	return b.Build()
}

// Each calls fn for every index in the set in ascending order; it stops
// early if fn returns false.
func (s IndexSet) Each(fn func(k int64) bool) {
	for _, iv := range s.ivs {
		for k := iv.Lo; k < iv.Hi; k++ {
			if !fn(k) {
				return
			}
		}
	}
}

// EachInterval calls fn for every maximal interval of the set in
// ascending order; it stops early if fn returns false. Bulk consumers
// (payload packing, array copies) should prefer this over Each.
func (s IndexSet) EachInterval(fn func(iv Interval) bool) {
	for _, iv := range s.ivs {
		if !fn(iv) {
			return
		}
	}
}

// Slice returns all indices of the set in ascending order. Intended for
// tests and small sets.
func (s IndexSet) Slice() []int64 {
	out := make([]int64, 0, s.Len())
	s.Each(func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

func (s IndexSet) String() string {
	if s.Empty() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if iv.Len() == 1 {
			fmt.Fprintf(&sb, "%d", iv.Lo)
		} else {
			fmt.Fprintf(&sb, "%d..%d", iv.Lo, iv.Hi-1)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Builder accumulates indices and intervals into an IndexSet. Adding in
// ascending order is O(1) amortized per add; out-of-order adds are
// reconciled at Build time.
type Builder struct {
	ivs    []Interval
	sorted bool // true when ivs is known sorted/disjoint/canonical
	dirty  bool
}

func (b *Builder) grow(n int) {
	if cap(b.ivs)-len(b.ivs) < n {
		next := make([]Interval, len(b.ivs), len(b.ivs)+n)
		copy(next, b.ivs)
		b.ivs = next
	}
}

// Add inserts a single index.
func (b *Builder) Add(k int64) { b.AddInterval(Interval{k, k + 1}) }

// AddInterval inserts every index of iv.
func (b *Builder) AddInterval(iv Interval) {
	if iv.Empty() {
		return
	}
	if n := len(b.ivs); n > 0 {
		last := &b.ivs[n-1]
		switch {
		case iv.Lo <= last.Hi && iv.Lo >= last.Lo:
			// Extends or is contained in the last interval: merge in place.
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			return
		case iv.Lo < last.Lo:
			b.dirty = true
		}
	}
	b.ivs = append(b.ivs, iv)
}

// AddSet inserts every index of s.
func (b *Builder) AddSet(s IndexSet) {
	b.grow(len(s.ivs))
	for _, iv := range s.ivs {
		b.AddInterval(iv)
	}
}

// Build returns the accumulated set and resets the builder.
func (b *Builder) Build() IndexSet {
	ivs := b.ivs
	dirty := b.dirty
	b.ivs = nil
	b.dirty = false
	if len(ivs) == 0 {
		return IndexSet{}
	}
	if dirty {
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
	}
	// Coalesce adjacent/overlapping intervals.
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return IndexSet{ivs: out}
}
