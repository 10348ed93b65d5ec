package dpl

import (
	"fmt"
	"sync"
	"testing"
)

// TestTableInstanceIsolation pins that Table instances are independent:
// interning into one never shows up in another, and stats toggles are
// per-instance.
func TestTableInstanceIsolation(t *testing.T) {
	a, b := NewTable(), NewTable()
	e := ImageExpr{Of: Var{Name: "TP"}, Func: "tf", Region: "TR"}
	idA := a.ID(e)
	if got := a.Entries(); got != 2 { // Var child + ImageExpr
		t.Fatalf("a.Entries() = %d, want 2", got)
	}
	if got := b.Entries(); got != 0 {
		t.Fatalf("b.Entries() = %d, want 0 (tables must be isolated)", got)
	}
	a.EnableStats(true)
	a.ID(e)
	b.ID(e) // b has stats off; must not tick a's counters beyond a's own lookups
	var aImgHits uint64
	for _, st := range a.Stats() {
		if st.Shard == "image" {
			aImgHits = st.Hits
		}
	}
	if aImgHits != 1 {
		t.Errorf("a image hits = %d, want exactly 1 (b's lookups must not leak in)", aImgHits)
	}
	if b.ID(e) != idA {
		// Same insertion order in both tables gives the same dense ids;
		// this is incidental but catches cross-table state bleed if it
		// ever diverges unexpectedly.
		t.Logf("note: ids differ across tables (allowed): a=%d b=%d", idA, b.ID(e))
	}
	if a.Key(e) != b.Key(e) {
		t.Errorf("canonical keys differ across tables: %q vs %q", a.Key(e), b.Key(e))
	}
}

// TestEpochDefersReclamation proves the epoch contract: a table over its
// bound does not reclaim while an epoch is active, and reclaims as soon
// as the last epoch leaves.
func TestEpochDefersReclamation(t *testing.T) {
	tab := NewTable()
	tab.SetMaxEntries(4)
	ep := tab.Enter()
	for i := 0; i < 8; i++ {
		tab.ID(Var{Name: fmt.Sprintf("E%d", i)})
	}
	if tab.Reclaims() != 0 {
		t.Fatalf("table reclaimed with an active epoch (reclaims=%d)", tab.Reclaims())
	}
	if tab.Entries() < 8 {
		t.Fatalf("entries = %d, want >= 8 before reclamation", tab.Entries())
	}
	if tab.Generation() != ep.Generation() {
		t.Fatalf("generation advanced under an active epoch")
	}
	ep.Leave()
	if tab.Reclaims() != 1 {
		t.Fatalf("reclaims = %d after last Leave, want 1", tab.Reclaims())
	}
	if tab.Entries() != 0 {
		t.Fatalf("entries = %d after reclamation, want 0", tab.Entries())
	}
	if tab.Generation() != ep.Generation()+1 {
		t.Fatalf("generation = %d, want %d", tab.Generation(), ep.Generation()+1)
	}
	// Leave is idempotent: a second Leave must not unbalance the count.
	ep.Leave()
	ep2 := tab.Enter()
	defer ep2.Leave()
	if tab.Generation() != ep2.Generation() {
		t.Fatalf("second epoch pinned stale generation")
	}
}

// TestEpochIDCoherence pins why epochs exist: ids observed inside one
// epoch stay coherent (same expression, same id), and after an
// epoch-bounded reclamation the fresh generation reassigns ids while
// content hashes stay identical.
func TestEpochIDCoherence(t *testing.T) {
	tab := NewTable()
	tab.SetMaxEntries(2)
	e1 := BinExpr{Op: OpUnion, L: Var{Name: "GA"}, R: Var{Name: "GB"}}

	ep := tab.Enter()
	first := tab.ID(e1)
	for i := 0; i < 6; i++ { // overflow the bound inside the epoch
		tab.ID(Var{Name: fmt.Sprintf("G%d", i)})
	}
	if tab.ID(e1) != first {
		t.Fatal("id changed within one epoch")
	}
	h := Hash128(e1)
	ep.Leave() // reclamation fires here

	ep2 := tab.Enter()
	defer ep2.Leave()
	if tab.Entries() != 0 && tab.Reclaims() == 0 {
		t.Fatal("expected a reclamation between epochs")
	}
	if got := tab.info(e1).h; got != h {
		t.Errorf("content hash changed across generations: %v vs %v", got, h)
	}
}

// TestTableReset covers the explicit Reset path used by cold-cache
// benchmark batches.
func TestTableReset(t *testing.T) {
	tab := NewTable()
	tab.ID(Var{Name: "RP"})
	ep := tab.Enter()
	if tab.Reset() {
		t.Fatal("Reset succeeded with an active epoch")
	}
	ep.Leave()
	if !tab.Reset() {
		t.Fatal("Reset refused with no active epochs")
	}
	if tab.Entries() != 0 || tab.Reclaims() != 1 {
		t.Fatalf("after Reset: entries=%d reclaims=%d", tab.Entries(), tab.Reclaims())
	}
}

// TestStatsToggleRace hammers EnableStats flips against concurrent
// interning on a private table; under -race this pins the fix for the
// old package-global toggle (a benchmark driver's stats-enabled rerun
// used to flip a global that in-flight compiles observed mid-run).
// Counters are per-instance atomics and Stats() retries across resets,
// so the worst outcome is an undercount, never a torn read.
func TestStatsToggleRace(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tab.ID(ImageExpr{Of: Var{Name: fmt.Sprintf("S%d_%d", g, i%32)}, Func: "f", Region: "R"})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		tab.EnableStats(i%2 == 0)
		stats := tab.Stats()
		if len(stats) != numShards {
			t.Errorf("Stats returned %d shards, want %d", len(stats), numShards)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatsSnapshotConsistent checks that a Stats() snapshot taken right
// after EnableStats(true) never reports stale counters from the previous
// enable window.
func TestStatsSnapshotConsistent(t *testing.T) {
	tab := NewTable()
	e := Var{Name: "SC"}
	tab.ID(e)
	tab.EnableStats(true)
	for i := 0; i < 50; i++ {
		tab.ID(e)
	}
	tab.EnableStats(true) // reset window
	for _, st := range tab.Stats() {
		if st.Shard == "var" && st.Hits > 0 {
			t.Errorf("var hits = %d immediately after reset, want 0", st.Hits)
		}
	}
}

// TestConcurrentEpochs checks Enter/Leave balance under concurrency:
// interleaved epochs with a pending reclamation reclaim exactly once,
// after the last leave.
func TestConcurrentEpochs(t *testing.T) {
	tab := NewTable()
	tab.SetMaxEntries(1)
	const n = 16
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := tab.Enter()
			defer ep.Leave()
			for i := 0; i < 32; i++ {
				tab.ID(Var{Name: fmt.Sprintf("C%d_%d", g, i)})
			}
		}()
	}
	wg.Wait()
	if tab.Reclaims() == 0 {
		t.Error("no reclamation despite overflow and all epochs left")
	}
	if tab.Entries() != 0 {
		t.Errorf("entries = %d after final reclamation, want 0", tab.Entries())
	}
}
