package rewrite_test

import (
	"testing"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// TestRunShardAllocsFlat pins that the shard interpreter's allocations
// do not grow with the shard: resolving the body costs a fixed number,
// each written field's dense run is one allocation whatever its length,
// a batched shard's scratch comes from a recycled arena, and the
// iterations allocate nothing. Each shard below (a whole single-node
// problem) must allocate exactly as often at its larger size as at its
// smaller: stencil's compute loop (centered reductions), a MiniAero face
// loop (guarded reductions, committed per batch) and circuit's charge
// loop (buffered reductions).
func TestRunShardAllocsFlat(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		sizes []func(*autopart.Compiled) (*exec.Program, error)
		task  func(*rewrite.ParallelLoop) bool
	}{
		{"stencil", stencil.Source(), []func(*autopart.Compiled) (*exec.Program, error){
			func(c *autopart.Compiled) (*exec.Program, error) {
				return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 8}, c, 1)
			},
			func(c *autopart.Compiled) (*exec.Program, error) {
				return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 128}, c, 1)
			},
		}, func(*rewrite.ParallelLoop) bool { return true }},
		{"miniaero faces", miniaero.Source(), []func(*autopart.Compiled) (*exec.Program, error){
			func(c *autopart.Compiled) (*exec.Program, error) {
				return miniaero.Executable(miniaero.Config{DX: 4, DY: 4, DZ: 4}, c, 1)
			},
			func(c *autopart.Compiled) (*exec.Program, error) {
				return miniaero.Executable(miniaero.Config{DX: 16, DY: 16, DZ: 16}, c, 1)
			},
		}, func(pl *rewrite.ParallelLoop) bool {
			return has(pl, func(a *rewrite.AccessInfo) bool { return a.Guarded })
		}},
		{"circuit charge", circuit.Source, []func(*autopart.Compiled) (*exec.Program, error){
			func(c *autopart.Compiled) (*exec.Program, error) {
				return circuit.Executable(circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.2}, c, 1, false)
			},
			func(c *autopart.Compiled) (*exec.Program, error) {
				return circuit.Executable(circuit.Config{WiresPerCluster: 4000, NodesPerCluster: 2000, SharedFraction: 0.02, CrossFraction: 0.2}, c, 1, false)
			},
		}, func(pl *rewrite.ParallelLoop) bool {
			return has(pl, func(a *rewrite.AccessInfo) bool { return a.Buffered })
		}},
	}
	for _, tc := range cases {
		c, err := autopart.Compile(tc.src, autopart.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var counts []float64
		for _, build := range tc.sizes {
			prog, err := build(c)
			if err != nil {
				t.Fatal(err)
			}
			var pl *rewrite.ParallelLoop
			for _, task := range prog.Plan.Tasks {
				if tc.task(task.Loop) {
					pl = task.Loop
					break
				}
			}
			if pl == nil || !rewrite.BatchSafe(pl) {
				t.Fatalf("%s: no batch-safe launch to pin", tc.name)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := rewrite.RunShard(prog.Machine, prog.Parts, pl, 0); err != nil {
					t.Fatal(err)
				}
			})
			elems := prog.Parts[pl.IterSym].Sub(0).Len()
			t.Logf("%s, %d elements: %.0f allocations per shard", tc.name, elems, allocs)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %.0f allocations per shard at the larger size, %.0f at the smaller; want equal", tc.name, counts[1], counts[0])
		}
	}
}

// has reports whether some access of pl satisfies ok.
func has(pl *rewrite.ParallelLoop, ok func(*rewrite.AccessInfo) bool) bool {
	for _, a := range pl.Access {
		if ok(a) {
			return true
		}
	}
	return false
}

// BenchmarkRunShard runs color 0 of every launch of stencil, miniaero,
// circuit and spmv at their default sizes on 8 nodes, each against the
// program's initial machine: the shard interpreter's own cost, without
// the executor's schedule, transport or flush around it. Stencil's and
// miniaero's launches run batched, circuit's too (its charge loop with
// buffered reductions); spmv's inner loop runs element-at-a-time.
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
		{"circuit", circuit.Source, func(c *autopart.Compiled) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), c, 8, false)
		}},
		{"spmv", spmv.Source, func(c *autopart.Compiled) (*exec.Program, error) {
			return spmv.Executable(spmv.DefaultConfig(), c, 8)
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
