package geometry

import "testing"

// TestLayoutPositions checks a layout over three runs: every element's
// position by cursor (walked up, down and at random) and by Span, misses
// in the gaps and past the ends, and Span refusing an interval that
// crosses a gap.
func TestLayoutPositions(t *testing.T) {
	set := FromIntervals(Interval{2, 5}, Interval{8, 9}, Interval{20, 24})
	l := NewLayout(set)
	if l.Len() != 8 || !l.Set().Equal(set) || l.Start(1) != 3 || l.Start(3) != 8 {
		t.Fatalf("layout: len %d set %s starts %d %d", l.Len(), l.Set(), l.Start(1), l.Start(3))
	}
	want := map[int64]int64{2: 0, 3: 1, 4: 2, 8: 3, 20: 4, 21: 5, 22: 6, 23: 7}
	c := l.Cursor()
	for _, order := range [][]int64{
		{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 21, 22, 23, 24, 30},
		{30, 24, 23, 22, 21, 20, 19, 9, 8, 7, 5, 4, 3, 2, 1},
		{22, 3, 8, 2, 23, 5, 20, 4, 9, 21},
	} {
		for _, k := range order {
			p, held := want[k]
			if !held {
				p = -1
			}
			if got := c.Pos(k); got != p {
				t.Errorf("cursor Pos(%d) = %d, want %d", k, got, p)
			}
		}
	}
	for _, tc := range []struct {
		iv  Interval
		pos int64
		ok  bool
	}{
		{Interval{2, 5}, 0, true},
		{Interval{3, 4}, 1, true},
		{Interval{8, 9}, 3, true},
		{Interval{21, 24}, 5, true},
		{Interval{4, 9}, 0, false},
		{Interval{5, 8}, 0, false},
		{Interval{23, 25}, 0, false},
	} {
		if p, ok := c.Span(tc.iv); ok != tc.ok || ok && p != tc.pos {
			t.Errorf("Span(%s) = %d, %v; want %d, %v", tc.iv, p, ok, tc.pos, tc.ok)
		}
	}
	empty := NewLayout(EmptySet()).Cursor()
	if p := empty.Pos(0); p != -1 {
		t.Errorf("empty layout: Pos(0) = %d, want -1", p)
	}
}
