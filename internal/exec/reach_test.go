package exec

import (
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// TestReachNamesLowestEscaping holds the reach check to the element it
// names: a shard's buffer holds contributions at the two ends of a large
// region, and against each reach the check must name the lowest
// contribution outside it, or none.
func TestReachNamesLowestEscaping(t *testing.T) {
	const n = 1 << 12
	c, err := autopart.Compile(`
region Faces { c1: index(Cells), flux: scalar }
region Cells { res: scalar }
for f in Faces {
  Cells[Faces[f].c1].res += Faces[f].flux
}
`, autopart.Options{DisableRelaxation: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := c.Parallel[0]
	faces := region.New("Faces", n)
	faces.AddIndexField("c1")
	faces.AddScalarField("flux")
	cells := region.New("Cells", n)
	cells.AddScalarField("res")
	for f := range faces.Index("c1") {
		faces.Index("c1")[f] = int64(f - f%8)
		faces.Scalar("flux")[f] = 1
	}
	m := ir.NewMachine().AddRegion(faces).AddRegion(cells)
	parts := map[string]*region.Partition{}
	for _, sym := range pl.Symbols() {
		parent, sub := faces, geometry.Range(0, 4).Union(geometry.Range(n-4, n))
		for _, info := range pl.Access {
			if info.Sym == sym && info.Region == "Cells" {
				parent, sub = cells, geometry.Range(0, n)
			}
		}
		parts[sym] = region.NewPartition(sym, parent, []geometry.IndexSet{sub})
	}
	res, err := rewrite.RunShard(m, parts, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := res.Reductions[rewrite.FieldKey{Region: "Cells", Field: "res"}]
	if buf == nil {
		t.Fatal("no reduction buffer")
	}
	for _, tc := range []struct {
		reach geometry.IndexSet
		want  int64 // -1: nothing escapes
	}{
		{geometry.IndexSet{}, 0},
		{geometry.Range(1, n), 0},
		{geometry.Range(0, 1), n - 8},
		{geometry.Range(0, 1).Union(geometry.Range(n-7, n)), n - 8},
		{geometry.Range(0, 8).Union(geometry.Range(n-9, n-7)), -1},
		{geometry.Range(0, n), -1},
	} {
		idx, found := escaping(buf, tc.reach)
		if !found {
			idx = -1
		}
		if idx != tc.want {
			t.Errorf("reach %s: escaping element %d, want %d", tc.reach, idx, tc.want)
		}
	}
}
