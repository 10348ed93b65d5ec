package region

import (
	"testing"

	"autopart/internal/geometry"
)

// benchTable returns a 2^18-element region, its 32-colour equal
// partition and a scattered pointer table over it: the shape of an
// evaluated benchmark's image and preimage through a pointer field.
func benchTable() (*Region, *Partition, geometry.TableMap) {
	const n = 1 << 18
	r := New("R", n)
	table := make([]int64, n)
	for i := range table {
		table[i] = int64(i*7919) % n
	}
	return r, Equal("p", r, 32), geometry.TableMap{Name: "R[·].ptr", Table: table}
}

func BenchmarkImageTable(b *testing.B) {
	r, p, m := benchTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Image("img", p, m, r)
	}
}

// BenchmarkPreimageTable pulls the table back through a disjoint and an
// aliased (every element in two colours) source partition.
func BenchmarkPreimageTable(b *testing.B) {
	r, p, m := benchTable()
	aliased := Union("a", p, Preimage("q", r, geometry.AffineMap{Name: "h", Stride: 1, Offset: 4096, Modulo: 1 << 18}, p))
	for _, c := range []struct {
		name string
		src  *Partition
	}{{"disjoint", p}, {"aliased", aliased}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Preimage("pre", r, m, c.src)
			}
		})
	}
}

// BenchmarkSplitByOwner splits remote sets against a 32-colour owner,
// the cost model's shape at 32 nodes: the owner is an equal partition
// with every eighth element of each block dealt to the next colour, so
// each subregion is fragmented, and each remote set is a colour's block
// widened by a quarter block on each side, minus the colour's own
// elements, so it spans its neighbours.
func BenchmarkSplitByOwner(b *testing.B) {
	const n, colors = 1 << 16, 32
	r := New("R", n)
	bs := make([]geometry.Builder, colors)
	for k := int64(0); k < n; k++ {
		c := int(k * colors / n)
		if k%8 == 7 {
			c = (c + 1) % colors
		}
		bs[c].Add(k)
	}
	subs := make([]geometry.IndexSet, colors)
	for c := range subs {
		subs[c] = bs[c].Build()
	}
	owner := NewPartition("own", r, subs)
	const block = n / colors
	remotes := make([]geometry.IndexSet, colors)
	for c := range remotes {
		lo := max(int64(c*block-block/4), 0)
		hi := min(int64((c+1)*block+block/4), n)
		remotes[c] = geometry.Range(lo, hi).Subtract(owner.Sub(c))
	}
	SplitByOwner(remotes[0], owner) // build the cached index outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range remotes {
			splitSink = SplitByOwner(s, owner)
		}
	}
}

// splitSink keeps BenchmarkSplitByOwner's calls from being optimised away.
var splitSink []OwnedPiece
