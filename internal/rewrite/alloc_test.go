package rewrite_test

import (
	"testing"

	"autopart/internal/apps/stencil"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// TestRunShardAllocsFlat pins that the shard interpreter's allocations
// do not grow with the shard: resolving the body costs a fixed number,
// and the iterations allocate only as the task's write maps grow. One
// stencil compute shard (a whole single-node grid) at 1,024 and 16,384
// elements must stay under 0.05 allocations per iteration at the
// larger size.
func TestRunShardAllocsFlat(t *testing.T) {
	c, err := autopart.Compile(stencil.Source(), autopart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var perIter float64
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
		perIter = allocs / float64(cfg.PointsPerNode())
		t.Logf("%d elements: %.0f allocations per shard, %.4f per iteration", cfg.PointsPerNode(), allocs, perIter)
	}
	if perIter >= 0.05 {
		t.Errorf("%.4f allocations per iteration at the larger size, want < 0.05", perIter)
	}
}
