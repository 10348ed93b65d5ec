package geometry

import "testing"

// Benchmark fixtures sized to resemble an evaluated benchmark
// partition: a fragmented million-element set.
func benchSet() IndexSet {
	var b Builder
	for lo := int64(0); lo < 1<<20; lo += 64 {
		b.AddInterval(Interval{lo, lo + 48})
	}
	return b.Build()
}

func BenchmarkImageAffine(b *testing.B) {
	s := benchSet()
	cod := Range(0, 1<<20)
	m := AffineMap{Name: "h", Stride: 1, Offset: 1, Modulo: 1 << 20}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imageAffine(s, m, cod)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imageGeneric(s, m, cod)
		}
	})
}

func BenchmarkPreimageAffine(b *testing.B) {
	dom := Range(0, 1<<20)
	target := benchSet()
	m := AffineMap{Name: "h", Stride: 1, Offset: 1, Modulo: 1 << 20}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			preimageAffine(dom, m, target)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			preimageGeneric(dom, m, target)
		}
	})
}

// BenchmarkImageTable covers a banded (SpMV-like) table, whose values
// are locally ascending so the hits form few runs, and a scattered one,
// whose hits arrive in no order at all.
func BenchmarkImageTable(b *testing.B) {
	const rows, band = 1 << 17, 8
	banded := make([]int64, rows*band)
	scattered := make([]int64, rows*band)
	for i := range banded {
		banded[i] = int64(i/band + i%band)
		scattered[i] = int64(i*7919) % (rows + band)
	}
	s := Range(0, rows*band)
	cod := Range(0, rows+band)
	for _, c := range []struct {
		name  string
		table []int64
	}{{"banded", banded}, {"scattered", scattered}} {
		m := TableMap{Name: "ind", Table: c.table}
		b.Run(c.name+"/fast", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				imageTable(s, m, cod)
			}
		})
		b.Run(c.name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				imageGeneric(s, m, cod)
			}
		})
	}
}

// BenchmarkPreimageTable pulls a scattered table back through one
// quarter of its codomain, and through all 32 colours of an equal split
// of it in one pass, against the per-colour generic evaluation.
func BenchmarkPreimageTable(b *testing.B) {
	const n, colours = 1 << 20, 32
	table := make([]int64, n)
	for i := range table {
		table[i] = int64((i * 7) % n)
	}
	m := TableMap{Name: "t", Table: table}
	dom := Range(0, n)
	targets := make([]IndexSet, colours)
	for c := range targets {
		targets[c] = Range(int64(c)*n/colours, int64(c+1)*n/colours)
	}
	b.Run("one/fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Preimage(dom, m, Range(0, n/4))
		}
	})
	b.Run("one/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			preimageGeneric(dom, m, Range(0, n/4))
		}
	})
	b.Run("colours/fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PreimageTable(dom, m, targets)
		}
	})
	b.Run("colours/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range targets {
				preimageGeneric(dom, m, t)
			}
		}
	})
}

func BenchmarkImageRangeTable(b *testing.B) {
	const n = 1 << 18
	ranges := make([]Interval, n)
	for i := range ranges {
		lo := int64(i * 8)
		ranges[i] = Interval{lo, lo + 8}
	}
	m := RangeTableMap{Name: "r", Ranges: ranges}
	s := Range(0, n)
	cod := Range(0, n*8)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imageRangeTable(s, m, cod)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imageMultiGeneric(s, m, cod)
		}
	})
}

// BenchmarkUnionAll compares the k-way merge against the pairwise fold
// it replaced, over 256 interleaved striped sets.
func BenchmarkUnionAll(b *testing.B) {
	const k = 256
	sets := make([]IndexSet, k)
	for c := range sets {
		var bld Builder
		for lo := int64(c * 16); lo < 1<<20; lo += k * 16 {
			bld.AddInterval(Interval{lo, lo + 8})
		}
		sets[c] = bld.Build()
	}
	b.Run("kway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionAll(sets)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var u IndexSet
			for _, s := range sets {
				u = u.Union(s)
			}
		}
	})
}
