package geometry

import (
	"cmp"
	"slices"
)

// ColorPiece is one color's share of a split index set.
type ColorPiece struct {
	Color int
	Set   IndexSet
}

// ColorIndex is the sorted array of (interval, color) runs of a family
// of sets, one set per color, for splitting other sets along the family
// in one merge walk. The sets may overlap: beside the runs it keeps the
// prefix maximum of their Hi, so a search finds the first run that can
// reach an index even when an earlier, longer run covers later ones.
type ColorIndex struct {
	runs  []colorRun
	reach []int64 // reach[i] is the largest Hi of runs[:i+1]
}

type colorRun struct {
	Interval
	color int
}

// NewColorIndex indexes sets, the set of color k at sets[k].
func NewColorIndex(sets []IndexSet) *ColorIndex {
	total := 0
	for _, s := range sets {
		total += len(s.ivs)
	}
	runs := make([]colorRun, 0, total)
	for k, s := range sets {
		for _, iv := range s.ivs {
			runs = append(runs, colorRun{Interval: iv, color: k})
		}
	}
	slices.SortFunc(runs, func(a, b colorRun) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.color, b.color)
	})
	reach := make([]int64, len(runs))
	for i, r := range runs {
		reach[i] = r.Hi
		if i > 0 && reach[i-1] > r.Hi {
			reach[i] = reach[i-1]
		}
	}
	return &ColorIndex{runs: runs, reach: reach}
}

// walk calls fn with every non-empty overlap of an interval of s and a
// run, in ascending order of s's intervals and, within one, of the
// runs' Lo. For each interval of s it skips to the first run that
// reaches the interval, searching forward from the last interval's
// first run, and from there touches only runs that start before the
// interval ends.
func (x *ColorIndex) walk(s IndexSet, fn func(color int, piece Interval)) {
	first := 0
	for _, iv := range s.ivs {
		first = skipTo(x.reach, first, iv.Lo)
		for _, r := range x.runs[first:] {
			if r.Lo >= iv.Hi {
				break
			}
			if ov := r.Intersect(iv); !ov.Empty() {
				fn(r.color, ov)
			}
		}
	}
}

// skipTo returns the first i from low on with reach[i] > lo, or
// len(reach). It doubles its step until it passes that i and then
// bisects, so its cost grows with the log of the distance it moves, not
// of the number of runs.
func skipTo(reach []int64, low int, lo int64) int {
	if low >= len(reach) || reach[low] > lo {
		return low
	}
	// reach[low] <= lo throughout; the answer is in (low, high].
	step := 1
	for low+step < len(reach) && reach[low+step] <= lo {
		low += step
		step *= 2
	}
	high := min(low+step, len(reach))
	for low+1 < high {
		mid := int(uint(low+high) >> 1)
		if reach[mid] > lo {
			high = mid
		} else {
			low = mid
		}
	}
	return high
}

// colorCount is one color met by a split: its number of pieces, then
// its fill cursor in the shared backing array.
type colorCount struct {
	color, n int
}

// findColor returns the position of color in counts, sorted by color,
// or where to insert it. It is written out rather than a
// slices.BinarySearchFunc because it runs twice per piece interval.
func findColor(counts []colorCount, color int) int {
	lo, hi := 0, len(counts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if counts[mid].color < color {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Split returns s ∩ sets[k] for every color k of the index where that
// is non-empty, in ascending color order; elements of s in no set
// appear in no piece. It walks s against the index twice: once to count
// each color's intervals, once to write them into one backing array
// shared by all the pieces. Its cost is linear in the runs the walk
// touches, plus a search per interval of s that grows with the log of
// the runs it skips, and does not grow with the number of colors the
// walk does not meet.
func (x *ColorIndex) Split(s IndexSet) []ColorPiece {
	if s.Empty() {
		return nil
	}
	// The colors met, sorted; a remote set usually meets a few
	// neighbours, which fit in buf without a heap allocation.
	var buf [16]colorCount
	counts := buf[:0]
	total := 0
	x.walk(s, func(color int, _ Interval) {
		i := findColor(counts, color)
		if i == len(counts) || counts[i].color != color {
			counts = slices.Insert(counts, i, colorCount{color: color})
		}
		counts[i].n++
		total++
	})
	if total == 0 {
		return nil
	}
	ivs := make([]Interval, total)
	out := make([]ColorPiece, len(counts))
	off := 0
	for i, c := range counts {
		out[i] = ColorPiece{Color: c.color, Set: IndexSet{ivs: ivs[off : off+c.n : off+c.n]}}
		counts[i].n = off
		off += c.n
	}
	x.walk(s, func(color int, piece Interval) {
		c := &counts[findColor(counts, color)]
		ivs[c.n] = piece
		c.n++
	})
	return out
}
