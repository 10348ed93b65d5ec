package geometry

import "slices"

// Layout places the elements of an index set at dense positions in
// ascending order: interval i of the set starts at position Start(i). It
// is immutable once built; a Cursor adds the per-user state that makes
// nearby lookups cheap.
type Layout struct {
	ivs []Interval
	off []int64 // one entry per interval, then the set's size
}

// NewLayout returns the layout of set.
func NewLayout(set IndexSet) *Layout {
	off := make([]int64, len(set.ivs)+1)
	for i, iv := range set.ivs {
		off[i+1] = off[i] + iv.Len()
	}
	return &Layout{ivs: set.ivs, off: off}
}

// Set returns the index set the layout places.
func (l *Layout) Set() IndexSet { return IndexSet{ivs: l.ivs} }

// Len returns the number of positions.
func (l *Layout) Len() int64 { return l.off[len(l.ivs)] }

// Intervals returns the set's intervals; the caller must not modify them.
func (l *Layout) Intervals() []Interval { return l.ivs }

// Start returns the position of interval i's first element; Start of the
// interval count is Len.
func (l *Layout) Start(i int) int64 { return l.off[i] }

// Gather copies, for each interval of set in ascending order, the values
// data holds for it into one slice, where data holds the elements l
// places. It reports false if l misses an element of set. Each interval
// of set lies in one held interval and is copied as one run; a set of
// one interval is cloned, which spares zeroing the copy first.
func Gather[V any](data []V, l *Layout, set IndexSet) ([]V, bool) {
	at := l.Cursor()
	if len(set.ivs) == 1 {
		p, ok := at.Span(set.ivs[0])
		if !ok {
			return nil, false
		}
		return slices.Clone(data[p : p+set.ivs[0].Len()]), true
	}
	out := make([]V, 0, set.Len())
	for _, iv := range set.ivs {
		p, ok := at.Span(iv)
		if !ok {
			return nil, false
		}
		out = append(out, data[p:p+iv.Len()]...)
	}
	return out, true
}

// Scatter copies vals, one per element of set in ascending order, into
// data, which holds the elements l places. It reports false at the first
// interval of set l misses, having written the intervals before it.
func Scatter[V any](data []V, l *Layout, set IndexSet, vals []V) bool {
	pos, at := 0, l.Cursor()
	for _, iv := range set.ivs {
		p, ok := at.Span(iv)
		if !ok {
			return false
		}
		pos += copy(data[p:p+iv.Len()], vals[pos:])
	}
	return true
}

// Locate returns the interval of s holding k, by binary search.
func (s IndexSet) Locate(k int64) (int, bool) {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.ivs[mid].Hi > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, lo < len(s.ivs) && s.ivs[lo].Lo <= k
}

// Cursor looks elements up in a Layout, trying the interval it last hit
// and then the one after it before a binary search, so that a walk in
// ascending order costs O(1) per lookup amortised. On a one-interval
// layout (a full region) every lookup hits. A cursor is one user's
// state: copy it, never share it between goroutines.
type Cursor struct {
	l *Layout
	i int
	// The interval last hit is [lo, lo+n); its element k lives at
	// position k-shift.
	lo, shift int64
	n         uint64
}

// Cursor returns a cursor on l positioned at its first interval.
func (l *Layout) Cursor() Cursor {
	c := Cursor{l: l}
	if len(l.ivs) > 0 {
		c.hit(0)
	}
	return c
}

// Layout returns the layout c looks elements up in.
func (c *Cursor) Layout() *Layout { return c.l }

// Pos returns idx's position, or -1 if the layout does not hold idx.
func (c *Cursor) Pos(idx int64) int64 {
	if uint64(idx-c.lo) < c.n {
		return idx - c.shift
	}
	return c.seek(idx)
}

// Span returns the position of iv's first element when the layout holds
// every element of iv, which then lie at consecutive positions: the
// layout's intervals are maximal, so a held interval lies inside one of
// them. iv must not be empty.
func (c *Cursor) Span(iv Interval) (int64, bool) {
	p := c.Pos(iv.Lo)
	return p, p >= 0 && uint64(iv.Hi-1-c.lo) < c.n
}

func (c *Cursor) seek(idx int64) int64 {
	ivs := c.l.ivs
	i := c.i + 1
	if i >= len(ivs) || !ivs[i].Contains(idx) {
		var ok bool
		if i, ok = c.l.Set().Locate(idx); !ok {
			return -1
		}
	}
	c.hit(i)
	return idx - c.shift
}

func (c *Cursor) hit(i int) {
	iv := c.l.ivs[i]
	c.i, c.lo, c.n, c.shift = i, iv.Lo, uint64(iv.Len()), iv.Lo-c.l.off[i]
}
