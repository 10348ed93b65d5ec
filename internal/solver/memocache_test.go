package solver

import (
	"sync"
	"testing"

	"autopart/internal/constraint"
	"autopart/internal/dpl"
)

func mk(i int) memoKey {
	return memoKey{fp: [2]uint64{uint64(i), uint64(i) * 31}}
}

// TestMemoCacheBoundedRotation pins the segmented-LRU bound: the cache
// never holds more than 2×cap entries, rotation counts evictions, and
// recently touched entries survive a rotation.
func TestMemoCacheBoundedRotation(t *testing.T) {
	c := NewMemoCache(4)
	for i := 0; i < 4; i++ {
		c.storeClosed(mk(i), true)
	}
	// Touch entry 0 after filling: it sits in the (full) current
	// generation. The next store rotates; entry 0 moves to the old
	// generation, and a subsequent lookup must still find and promote it.
	c.storeClosed(mk(4), false) // rotation: cur was full
	if v, ok := c.lookupClosed(mk(0)); !ok || !v {
		t.Fatalf("entry 0 lost across one rotation: ok=%v v=%v", ok, v)
	}
	st := c.Stats()
	if st.Entries > 8 {
		t.Errorf("entries = %d, want <= 2*cap = 8", st.Entries)
	}
	// Overflow until the original old generation drops.
	for i := 5; i < 20; i++ {
		c.storeClosed(mk(i), true)
	}
	st = c.Stats()
	if st.Entries > 8 {
		t.Errorf("entries = %d after overflow, want <= 8", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded despite overflow")
	}
}

// TestMemoCacheStats checks hit/miss accounting and HitRate.
func TestMemoCacheStats(t *testing.T) {
	c := NewMemoCache(16)
	if _, ok := c.lookupClosed(mk(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.storeClosed(mk(1), true)
	for i := 0; i < 9; i++ {
		if v, ok := c.lookupClosed(mk(1)); !ok || !v {
			t.Fatal("stored entry missing")
		}
	}
	st := c.Stats()
	if st.Hits != 9 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 9/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got != 0.9 {
		t.Errorf("HitRate = %v, want 0.9", got)
	}
}

// TestMemoCacheConcurrent hammers the cache from many goroutines under
// the race detector.
func TestMemoCacheConcurrent(t *testing.T) {
	c := NewMemoCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := mk((g*131 + i) % 200)
				if _, ok := c.lookupClosed(k); !ok {
					c.storeClosed(k, i%2 == 0)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestContextFingerprintSeparation proves different solving contexts
// never share memo keys: same system fingerprint, different external
// assumptions or symbol sets, different context halves.
func TestContextFingerprintSeparation(t *testing.T) {
	empty := &constraint.System{}
	withPred := &constraint.System{}
	withPred.Preds = append(withPred.Preds, constraint.Pred{
		Kind: constraint.Disj, E: dpl.Var{Name: "px"}, Region: "R",
	})

	base := contextFingerprint(empty, nil, nil)
	if got := contextFingerprint(empty, nil, nil); got != base {
		t.Fatal("context fingerprint not deterministic")
	}
	if got := contextFingerprint(withPred, nil, nil); got == base {
		t.Error("different external systems share a context fingerprint")
	}
	if got := contextFingerprint(empty, []string{"px"}, nil); got == base {
		t.Error("different external symbol sets share a context fingerprint")
	}
	// Symbol order must not matter.
	a := contextFingerprint(empty, []string{"pa", "pb"}, nil)
	b := contextFingerprint(empty, []string{"pb", "pa"}, nil)
	if a != b {
		t.Error("context fingerprint depends on external symbol order")
	}
}

// TestSharedCacheVerdictReuse runs two solvers over the same system
// through one shared cache: the second must answer its closed-conjunct
// check from the cache (per-solver ClosedMisses == 0) and return the
// same verdict, and a solver with another solving context must never
// reuse the entry.
func TestSharedCacheVerdictReuse(t *testing.T) {
	// pa ⊆ pa ∪ pb is closed over the external symbols pa and pb, so the
	// search's first node proves it through the closed-conjunct memo.
	sys := &constraint.System{}
	sys.Subsets = append(sys.Subsets, constraint.Subset{
		L: dpl.Var{Name: "pa"},
		R: dpl.UnionAll([]dpl.Expr{dpl.Var{Name: "pa"}, dpl.Var{Name: "pb"}}),
	})
	ext := []string{"pa", "pb"}

	cache := NewMemoCache(1024)
	s1 := NewWithCache(nil, ext, cache)
	v1 := s1.solvable(sys)
	if st := s1.Stats(); st.ClosedMisses != 1 || st.ClosedHits != 0 {
		t.Fatalf("cold solver: hits/misses = %d/%d, want 0/1", st.ClosedHits, st.ClosedMisses)
	}

	s2 := NewWithCache(nil, ext, cache)
	v2 := s2.solvable(sys)
	if v1 != v2 {
		t.Fatalf("verdicts differ across shared-cache solvers: %v vs %v", v1, v2)
	}
	if st := s2.Stats(); st.ClosedHits != 1 || st.ClosedMisses != 0 {
		t.Errorf("warm solver: hits/misses = %d/%d, want 1/0", st.ClosedHits, st.ClosedMisses)
	}

	// A solver with a different external context must NOT reuse the
	// verdict entry (regardless of what its own verdict is).
	s3 := NewWithCache(nil, append(ext, "p9"), cache)
	s3.solvable(sys)
	if st := s3.Stats(); st.ClosedHits != 0 || st.ClosedMisses != 1 {
		t.Errorf("cross-context solver: hits/misses = %d/%d, want 0/1", st.ClosedHits, st.ClosedMisses)
	}
}

// TestMemoCacheDefaultCap covers the capacity fallback.
func TestMemoCacheDefaultCap(t *testing.T) {
	c := NewMemoCache(0)
	if c.cap != DefaultMemoCacheCap {
		t.Errorf("cap = %d, want %d", c.cap, DefaultMemoCacheCap)
	}
	for i := 0; i < 10; i++ {
		c.storeClosed(mk(i), true)
	}
	if c.Stats().Entries != 10 {
		t.Errorf("entries = %d, want 10", c.Stats().Entries)
	}
}
