package rewrite_test

import (
	"testing"

	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
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

// BenchmarkRunShard runs color 0 of every launch of stencil and
// miniaero at their default sizes on 8 nodes, each against the
// program's initial machine: the shard interpreter's own cost, without
// the executor's schedule, transport or flush around it.
func BenchmarkRunShard(b *testing.B) {
	type app struct {
		name  string
		src   string
		build func(*autopart.Compiled) (*exec.Program, error)
	}
	apps := []app{
		{"stencil", stencil.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return stencil.Executable(stencil.DefaultConfig(), c, 8)
		}},
		{"miniaero", miniaero.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return miniaero.Executable(miniaero.DefaultConfig(), c, 8)
		}},
	}
	for _, a := range apps {
		c, err := autopart.Compile(a.src, autopart.Options{})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := a.build(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, t := range prog.Plan.Tasks {
					if _, err := rewrite.RunShard(prog.Machine, prog.Parts, t.Loop, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
