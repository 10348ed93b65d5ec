package rewrite_test

import (
	"testing"

	"autopart/internal/apps/stencil"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// TestRunShardAllocsFlat pins that the shard interpreter's allocations
// do not grow with the shard: resolving the body costs a fixed number,
// each written field's dense run is one allocation whatever its length,
// and the iterations allocate nothing. One stencil compute shard (a
// whole single-node grid) must allocate exactly as often at 16,384
// elements as at 1,024.
func TestRunShardAllocsFlat(t *testing.T) {
	c, err := autopart.Compile(stencil.Source(), autopart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for _, rows := range []int64{8, 128} {
		cfg := stencil.Config{Width: 128, RowsPerNode: rows}
		prog, err := stencil.Executable(cfg, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		pl := prog.Plan.Tasks[0].Loop
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := rewrite.RunShard(prog.Machine, prog.Parts, pl, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d elements: %.0f allocations per shard", cfg.PointsPerNode(), allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("%.0f allocations per shard at 16,384 elements, %.0f at 1,024; want equal", counts[1], counts[0])
	}
}
