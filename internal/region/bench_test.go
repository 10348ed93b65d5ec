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
