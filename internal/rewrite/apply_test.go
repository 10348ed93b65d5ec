package rewrite

import (
	"testing"

	"autopart/internal/geometry"
)

// halve is an IndexMap of a type the batched Apply has no loop for: it
// maps even k to k/2 and has no value at odd k.
type halve struct{}

func (halve) MapName() string { return "halve" }

func (halve) Apply(k int64) (int64, bool) { return k / 2, k%2 == 0 }

// TestApplyLanesMatchApply holds each lane loop of a batched Apply to
// the map's own Apply, lane by lane, over indexes below, inside and
// above every map's domain: affine (plain, clamped, periodic, both) and
// a partial table. A shard whose lane loop returned a wrong index could
// still match the element-at-a-time path, by failing the batch and
// re-running it; this test sees the lanes themselves. Any other map
// must fail the batch, so that the element-at-a-time path runs it.
func TestApplyLanesMatchApply(t *testing.T) {
	clamp := geometry.Interval{Lo: 2, Hi: 40}
	maps := []geometry.IndexMap{
		geometry.AffineMap{Stride: 3, Offset: -7},
		geometry.AffineMap{Stride: -2, Offset: 50, Clamp: &clamp},
		geometry.AffineMap{Stride: 5, Offset: -3, Modulo: 17},
		geometry.AffineMap{Stride: 5, Offset: -3, Modulo: 17, Clamp: &clamp},
		geometry.TableMap{Table: []int64{4, -1, 0, 9, -1, 3}},
	}
	b := &batch{a: &arena{state: make([][lanes]uint8, 2), i: make([][lanes]int64, 2)}}
	ks := &b.a.i[0]
	var sel []uint8 // every third lane, so unselected lanes must stay untouched
	for l := 0; l < lanes; l += 3 {
		ks[l] = int64(l/3) - 40 // k = -40…45
		sel = append(sel, uint8(l))
	}
	for _, fn := range maps {
		state, out := &b.a.state[1], &b.a.i[1]
		*state, *out = [lanes]uint8{}, [lanes]int64{}
		if !b.apply(0, 1, fn)(sel) {
			t.Fatalf("%#v: the step failed on index lanes", fn)
		}
		for _, l := range sel {
			v, ok := fn.Apply(ks[l])
			switch {
			case ok && (state[l] != indexSlot || out[l] != v):
				t.Errorf("%#v: lane %d (k=%d) holds state %d, index %d; Apply gives %d", fn, l, ks[l], state[l], out[l], v)
			case !ok && state[l] != invalidSlot:
				t.Errorf("%#v: lane %d (k=%d) holds state %d; Apply has no value", fn, l, ks[l], state[l])
			}
		}
		for l := range state {
			if l%3 != 0 && state[l] != unbound {
				t.Fatalf("%#v: unselected lane %d was written", fn, l)
			}
		}
	}
	for _, fn := range []geometry.IndexMap{geometry.IdentityMap{}, halve{}} {
		if b.apply(0, 1, fn)(sel) {
			t.Errorf("%#v: the step ran a map it has no lane loop for", fn)
		}
	}
}
