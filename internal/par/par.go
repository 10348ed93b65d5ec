// Package par provides the bounded worker pool shared by the parallel
// evaluation engine (region partition operators, the sim scaling driver).
// It is a thin stdlib-only layer: a Do(n, fn) fan-out over GOMAXPROCS
// goroutines with deterministic result placement (callers index into
// pre-sized output slices), plus a process-wide sequential switch
// (SetSequential) that tests use to compare parallel and sequential
// evaluations bit-for-bit.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	sequential atomic.Bool
	// workers overrides the pool size when > 0; 0 means GOMAXPROCS.
	workers atomic.Int64
)

// SetSequential switches every subsequent Do call to inline sequential
// execution (true) or back to the worker pool (false). Process-wide.
func SetSequential(v bool) { sequential.Store(v) }

// Sequential reports whether sequential mode is active.
func Sequential() bool { return sequential.Load() }

// SetWorkers overrides the pool size; n <= 0 restores the default
// (GOMAXPROCS). Intended for tests that force the concurrent path on
// single-CPU machines.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers returns the pool size Do will use.
func Workers() int {
	if w := int(workers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(0), fn(1), ..., fn(n-1), each exactly once. In sequential
// mode (or when the pool has a single worker) the calls run inline in
// index order; otherwise they are distributed over min(n, Workers())
// goroutines. fn must therefore be safe for concurrent invocation with
// distinct indices; deterministic output is achieved by having fn write
// only to the i-th slot of pre-sized slices. A panic in any invocation
// is re-raised on the calling goroutine after all workers stop.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if n == 1 || w <= 1 || Sequential() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
