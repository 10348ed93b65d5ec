package rewrite

import (
	"math"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
)

// TestMergeShardReductionsOrder holds the merge to the fold order bit
// identity depends on: per element, the first contributing color seeds
// the total, later colors fold into it in ascending order, and the total
// then folds into the region. Four colors with overlapping and gapped
// buffers (one color contributes nothing) carry values whose sums and
// products depend on the order, so any other order shows in the bits.
func TestMergeShardReductionsOrder(t *testing.T) {
	const size = 64
	spans := [][]geometry.Interval{
		{{Lo: 0, Hi: 10}, {Lo: 40, Hi: 44}},
		nil,
		{{Lo: 5, Hi: 20}, {Lo: 42, Hi: 50}},
		{{Lo: 8, Hi: 9}, {Lo: 18, Hi: 30}, {Lo: 43, Hi: 60}},
	}
	vals := []float64{1e16, 1, -1e16, 0.1, -3, 0.7, 1e-3, 1.3, 7}
	for _, op := range []string{"+=", "*="} {
		t.Run(op, func(t *testing.T) {
			r := region.New("R", size)
			r.AddScalarField("v")
			for i := range r.Scalar("v") {
				r.Scalar("v")[i] = vals[(i*5)%len(vals)]
			}
			want := append([]float64(nil), r.Scalar("v")...)

			perColor := make([]map[FieldKey]*ReduceBuffer, len(spans))
			contrib := make([]map[int64]float64, len(spans))
			next := 0
			for c, ivs := range spans {
				contrib[c] = map[int64]float64{}
				if ivs == nil {
					continue
				}
				at := geometry.NewLayout(geometry.FromIntervals(ivs...)).Cursor()
				buf := &ReduceBuffer{Op: op, Run: *newRun[float64](&at)}
				for _, iv := range ivs {
					for k := iv.Lo; k < iv.Hi; k++ {
						v := vals[next%len(vals)]
						next++
						buf.put(k, v)
						contrib[c][k] = v
					}
				}
				perColor[c] = map[FieldKey]*ReduceBuffer{{"R", "v"}: buf}
			}

			apply := func(a, b float64) float64 {
				if op == "+=" {
					return a + b
				}
				return a * b
			}
			sensitive := false
			for k := range want {
				var total float64
				seeded := false
				seq := want[k]
				for c := range spans {
					v, ok := contrib[c][int64(k)]
					if !ok {
						continue
					}
					if seeded {
						total = apply(total, v)
					} else {
						total, seeded = v, true
					}
					seq = apply(seq, v)
				}
				if seeded {
					want[k] = apply(want[k], total)
					sensitive = sensitive || math.Float64bits(seq) != math.Float64bits(want[k])
				}
			}
			if !sensitive {
				t.Fatal("no element's result depends on the fold order; the values do not test it")
			}

			MergeShardReductions(ir.NewMachine().AddRegion(r), perColor)
			for k, got := range r.Scalar("v") {
				if math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Errorf("element %d = %v, want %v", k, got, want[k])
				}
			}
		})
	}
}

// farSrc stores to a face field and reduces into a cell field.
const farSrc = `
region Faces { c1: index(Cells), flux: scalar }
region Cells { res: scalar }
for f in Faces {
  Faces[f].flux *= 2
  Cells[Faces[f].c1].res += Faces[f].flux
}
`

// TestRunShardFarApartRuns runs a shard whose store subregions are two
// runs at opposite ends of their regions, so their hull is far larger
// than the set. Each dense run must cover the set, not the hull, and
// hold exactly the stored elements, and the launch must equal the
// sequential loop.
func TestRunShardFarApartRuns(t *testing.T) {
	const n = 1 << 16
	plans, sol, priv := compile(t, farSrc, false)
	pl := Build(plans, sol, priv)[0]
	machine := func() *ir.Machine {
		faces := region.New("Faces", n)
		faces.AddIndexField("c1")
		faces.AddScalarField("flux")
		cells := region.New("Cells", n)
		cells.AddScalarField("res")
		for f := range faces.Index("c1") {
			faces.Index("c1")[f] = int64(f - f%8)
			faces.Scalar("flux")[f] = float64(f%13 + 1)
		}
		return ir.NewMachine().AddRegion(faces).AddRegion(cells)
	}
	m := machine()
	ends := geometry.Range(0, 4).Union(geometry.Range(n-4, n))
	cellEnds := geometry.FromSlice([]int64{0, n - 8})
	parts := map[string]*region.Partition{}
	for _, sym := range pl.Symbols() {
		parent, subs := m.Regions["Faces"], []geometry.IndexSet{ends, geometry.Range(4, n-4)}
		for _, info := range pl.Access {
			if info.Sym == sym && info.Region == "Cells" {
				parent, subs = m.Regions["Cells"], []geometry.IndexSet{cellEnds, geometry.Range(0, n)}
			}
		}
		parts[sym] = region.NewPartition(sym, parent, subs)
	}

	res, err := RunShard(m, parts, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	flux := res.Scalars[FieldKey{"Faces", "flux"}]
	if flux == nil || !flux.domain().Equal(ends) || len(flux.vals) != int(ends.Len()) {
		t.Fatalf("flux run = %+v, want one over %s", flux, ends)
	}
	if got := runSet(flux); !got.Equal(ends) {
		t.Errorf("flux run holds %s, want %s", got, ends)
	}
	buf := res.Reductions[FieldKey{"Cells", "res"}]
	if buf == nil || !buf.domain().Equal(cellEnds) || len(buf.vals) != int(cellEnds.Len()) {
		t.Fatalf("res buffer = %+v, want one over %s", buf, cellEnds)
	}
	if got := runSet(&buf.Run); !got.Equal(cellEnds) {
		t.Errorf("res buffer holds %s, want %s", got, cellEnds)
	}
	if v, ok := buf.Get(0); !ok || v != 2*(1+2+3+4) {
		t.Errorf("res buffer at 0 = %v, %v, want %v", v, ok, 2*(1+2+3+4))
	}
	if _, ok := buf.Get(8); ok {
		t.Error("res buffer holds element 8, which only color 1 reaches")
	}

	if err := RunLaunch(m, parts, pl); err != nil {
		t.Fatal(err)
	}
	seq := machine()
	if err := seq.RunSequential(pl.Loop); err != nil {
		t.Fatal(err)
	}
	for _, k := range []FieldKey{{"Faces", "flux"}, {"Cells", "res"}} {
		got, want := m.Regions[k.Region].Scalar(k.Field), seq.Regions[k.Region].Scalar(k.Field)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s.%s[%d] = %v, sequential %v", k.Region, k.Field, i, got[i], want[i])
			}
		}
	}
}

// runSet returns the elements r holds a value for.
func runSet[V float64 | int64](r *Run[V]) geometry.IndexSet {
	var b geometry.Builder
	r.EachRun(func(lo, hi int64, _ []V) bool {
		b.AddInterval(geometry.Interval{Lo: lo, Hi: hi})
		return true
	})
	return b.Build()
}
