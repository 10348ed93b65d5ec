package par

import (
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the pool size forced to n, restoring the
// default afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7} {
		withWorkers(t, w, func() {
			for _, n := range []int{0, 1, 2, 5, 100} {
				counts := make([]atomic.Int64, n)
				Do(n, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Errorf("workers=%d n=%d: fn(%d) ran %d times", w, n, i, got)
					}
				}
			}
		})
	}
}

func TestDoSequentialRunsInOrder(t *testing.T) {
	withWorkers(t, 1, func() {
		var order []int
		Do(8, func(i int) { order = append(order, i) })
		for i, v := range order {
			if v != i {
				t.Fatalf("sequential order = %v", order)
			}
		}
		if len(order) != 8 {
			t.Fatalf("len(order) = %d", len(order))
		}
	})
}

func TestDoPropagatesPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		Do(16, func(i int) {
			if i == 5 {
				panic("boom")
			}
		})
	})
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
	SetWorkers(-3)
	if Workers() < 1 {
		t.Fatalf("Workers() after negative set = %d", Workers())
	}
}
