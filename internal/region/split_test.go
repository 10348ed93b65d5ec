package region

import (
	"math/rand"
	"testing"

	"autopart/internal/geometry"
)

// randSet returns a random index set within [0, size): a few intervals,
// a third of them single elements, with gaps between them.
func randSet(rng *rand.Rand, size int64) geometry.IndexSet {
	var b geometry.Builder
	for i := rng.Intn(7); i > 0; i-- {
		lo := rng.Int63n(size)
		hi := lo + 1
		if rng.Intn(3) > 0 {
			hi += rng.Int63n(size/4 + 1)
		}
		b.AddInterval(geometry.Interval{Lo: lo, Hi: min(hi, size)})
	}
	return b.Build()
}

// randOwner returns an n-colour partition of r. A disjoint one deals
// runs of random length to random colours, leaving some runs unowned
// (gaps) and some colours empty; an aliased one gives every colour its
// own random set, so colours overlap.
func randOwner(rng *rand.Rand, r *Region, n int, aliased bool) *Partition {
	subs := make([]geometry.IndexSet, n)
	if aliased {
		for k := range subs {
			if rng.Intn(4) > 0 {
				subs[k] = randSet(rng, r.Size())
			}
		}
		return NewPartition("own", r, subs)
	}
	bs := make([]geometry.Builder, n)
	for lo := int64(0); lo < r.Size(); {
		hi := min(lo+1+rng.Int63n(r.Size()/8+1), r.Size())
		if k := rng.Intn(n + 1); k < n {
			bs[k].AddInterval(geometry.Interval{Lo: lo, Hi: hi})
		}
		lo = hi
	}
	for k := range subs {
		subs[k] = bs[k].Build()
	}
	return NewPartition("own", r, subs)
}

// splitByIntersect is SplitByOwner's definition: one Intersect per
// colour, the non-empty pieces in ascending colour order.
func splitByIntersect(s geometry.IndexSet, owner *Partition) []OwnedPiece {
	var out []OwnedPiece
	for k := 0; k < owner.NumSubs(); k++ {
		if piece := s.Intersect(owner.Sub(k)); !piece.Empty() {
			out = append(out, OwnedPiece{Color: k, Set: piece})
		}
	}
	return out
}

// TestSplitByOwnerMatchesIntersect holds SplitByOwner to per-colour
// Intersect piece by piece on seeded random partitions: gapped
// subregions, empty colours, aliased owners, sets reaching outside the
// owner's union and single-element intervals. Half the splits go
// through a Rename view, which must give the same pieces from the index
// it shares with the partition it renames.
func TestSplitByOwnerMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		r := New("R", 1+rng.Int63n(120))
		owner := randOwner(rng, r, 1+rng.Intn(9), trial%3 == 0)
		view := owner.Rename("view")
		for q := 0; q < 8; q++ {
			// Half the queries reach past the region, where no colour
			// owns anything.
			s := randSet(rng, r.Size()+int64(q%2)*16)
			on := owner
			if q%2 == 1 {
				on = view
			}
			got, want := SplitByOwner(s, on), splitByIntersect(s, owner)
			if len(got) != len(want) {
				t.Fatalf("trial %d: split of %s over\n%s\ngave %d pieces, want %d: %v",
					trial, s, owner, len(got), len(want), got)
			}
			for i := range want {
				if got[i].Color != want[i].Color || !got[i].Set.Equal(want[i].Set) {
					t.Fatalf("trial %d: split of %s over\n%s\npiece %d is colour %d %s, want colour %d %s",
						trial, s, owner, i, got[i].Color, got[i].Set, want[i].Color, want[i].Set)
				}
			}
		}
		if view.ownerIndex() != owner.ownerIndex() {
			t.Fatalf("trial %d: the Rename view built its own owner index", trial)
		}
	}
	if got := SplitByOwner(geometry.IndexSet{}, randOwner(rng, New("R", 8), 3, false)); got != nil {
		t.Errorf("split of the empty set = %v, want nil", got)
	}
}
