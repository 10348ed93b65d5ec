// Package sim_test holds the end-to-end parallel-vs-sequential
// differential tests. They live in an external test package so they can
// drive the app figure generators (which import sim) without a cycle.
package sim_test

import (
	"reflect"
	"testing"

	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/par"
	"autopart/internal/sim"
)

// figureDifferential evaluates a figure twice — fully sequential, then
// over a forced 4-worker pool — and requires bit-identical output: the
// same Series labels and float64-exact Points. This is the acceptance
// check for the deterministic-parallelism design (slot-indexed partition
// writes, two-phase plan/accumulate cost charging, input-ordered sweeps).
func figureDifferential(t *testing.T, name string, gen func() (sim.Figure, error)) {
	t.Helper()
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	seq, err := gen()
	if err != nil {
		t.Fatalf("%s sequential: %v", name, err)
	}
	par.SetWorkers(4)
	parl, err := gen()
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if !reflect.DeepEqual(seq, parl) {
		t.Errorf("%s: parallel figure differs from sequential\nsequential:\n%s\nparallel:\n%s",
			name, seq.Render(), parl.Render())
	}
}

func TestFigure14aParallelBitIdentical(t *testing.T) {
	cfg := spmv.Config{RowsPerNode: 256, NnzPerRow: 8}
	model := sim.ModelFor(float64(cfg.RowsPerNode*cfg.NnzPerRow), spmv.RealIterSeconds)
	nodes := []int{1, 2, 4, 8}
	figureDifferential(t, "14a", func() (sim.Figure, error) {
		return spmv.Figure14a(cfg, model, nodes)
	})
}

func TestFigure14bParallelBitIdentical(t *testing.T) {
	cfg := stencil.Config{Width: 128, RowsPerNode: 8}
	model := sim.ModelFor(float64(cfg.PointsPerNode())*9, stencil.RealIterSeconds)
	nodes := []int{1, 2, 4}
	figureDifferential(t, "14b", func() (sim.Figure, error) {
		return stencil.Figure14b(cfg, model, nodes)
	})
}

// TestSweepOrderAndErrors pins the Sweep contract: results arrive in
// input order and the first error by input order wins.
func TestSweepOrderAndErrors(t *testing.T) {
	par.SetWorkers(4)
	defer par.SetWorkers(0)
	got, err := sim.Sweep([]int{3, 1, 2}, func(n int) (int, error) {
		return n * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{30, 10, 20}) {
		t.Fatalf("Sweep results = %v", got)
	}

	boom := func(n int) (int, error) {
		if n%2 == 1 {
			return 0, errOdd(n)
		}
		return n, nil
	}
	if _, err := sim.Sweep([]int{2, 5, 4, 3}, boom); err == nil || err.Error() != "odd 5" {
		t.Fatalf("Sweep error = %v, want first-in-input-order odd 5", err)
	}
}

type errOdd int

func (e errOdd) Error() string { return "odd " + string(rune('0'+int(e))) }
