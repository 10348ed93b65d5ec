package exec_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/geometry"
	"autopart/internal/region"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// TestWindowsCoverEveryTouchedSet holds each node's windows to what its
// run touches: on every builtin at 3 and 8 nodes, every transfer set,
// fold owned part, merge reach, access-plan subregion and final gather
// piece of node j lies inside j's window of its region.
func TestWindowsCoverEveryTouchedSet(t *testing.T) {
	for _, app := range appCases(t) {
		for _, nodes := range []int{3, 8} {
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatal(err)
				}
				var held, whole int64
				for j := 0; j < nodes; j++ {
					win, touches, err := exec.NodeWindows(prog, exec.Config{Nodes: nodes, Steps: 2}, j)
					if err != nil {
						t.Fatalf("node %d: %v", j, err)
					}
					for _, tc := range touches {
						w := win[tc.Region]
						if b, ok := tc.Set.Bounds(); ok && (b.Lo < w.Lo || b.Hi > w.Hi) {
							t.Errorf("node %d: %s: %s.%s lies outside window %s", j, tc.What, tc.Region, tc.Set, w)
						}
					}
					for name, r := range prog.Machine.Regions {
						held += win[name].Len()
						whole += r.Size()
					}
				}
				t.Logf("windows hold %.1f%% of the elements a full copy per node would", 100*float64(held)/float64(whole))
			})
		}
	}
}

// TestRunAllocsPerNodeFlat pins that a node's memory is its own share of
// a weak-scaled problem, not the whole problem: stencil at 128×4
// elements per node allocates, per node, at most 1.5× as much on 32
// nodes as on 8. A node holding a copy of every region grows with the
// node count (2.1× here: 193 KB to 406 KB).
func TestRunAllocsPerNodeFlat(t *testing.T) {
	c := compiled(t, "stencil", stencil.Source())
	perNode := map[int]float64{}
	for _, nodes := range []int{8, 32} {
		prog, err := stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 4}, c, nodes)
		if err != nil {
			t.Fatal(err)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if _, err := exec.Run(prog, exec.Config{Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		perNode[nodes] = float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes)
		t.Logf("%d nodes: %.0f KB allocated per node", nodes, perNode[nodes]/1024)
	}
	if growth := perNode[32] / perNode[8]; growth > 1.5 {
		t.Errorf("per-node allocation grows %.2f× from 8 to 32 nodes, want ≤ 1.5×", growth)
	}
}

// TestOutsideWindowFailsBeforeSending gives a field circuit never writes
// an owner whose every subregion also claims one element past the end
// of the region. No node can hold a window over that element, so every
// node's schedule misses its final gather piece: Run must fail with the
// named out-of-window error, naming node, region, window and set, with
// no message sent and no goroutine left behind — not index out of range
// at the gather.
func TestOutsideWindowFailsBeforeSending(t *testing.T) {
	const nodes = 3
	prog, err := circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit", circuit.Source), nodes, false)
	if err != nil {
		t.Fatal(err)
	}
	written := map[sim.FieldKey]bool{}
	for _, task := range prog.Plan.Tasks {
		for _, req := range task.Launch.Reqs {
			for _, f := range req.Fields {
				if req.Priv != runtime.ReadOnly {
					written[sim.FieldKey{Region: req.Region, Field: f}] = true
				}
			}
		}
	}
	var keys []sim.FieldKey
	for fk := range prog.Owners.Owners {
		if !written[fk] {
			keys = append(keys, fk)
		}
	}
	if len(keys) == 0 {
		t.Fatal("circuit writes every owned field; the test is vacuous")
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Region+"."+keys[a].Field < keys[b].Region+"."+keys[b].Field })
	victim := keys[0]
	size := prog.Machine.Regions[victim.Region].Size()
	owner := prog.Owners.Owners[victim]
	subs := make([]geometry.IndexSet, nodes)
	for c := range subs {
		subs[c] = owner.Sub(c).Union(geometry.Range(size+int64(c), size+int64(c)+1))
	}
	past := region.NewPartition("past_end", region.New(victim.Region, size+nodes), subs)
	owners := sim.NewState()
	for fk, p := range prog.Owners.Owners {
		owners.Own(fk.Region, fk.Field, p)
	}
	owners.Own(victim.Region, victim.Field, past)
	prog.Owners = owners

	err = runFailsBeforeSending(t, prog, nodes)
	want := fmt.Sprintf("node 0, region %s, window ", victim.Region)
	if !errors.Is(err, exec.ErrOutsideWindow) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprint(size)) {
		t.Fatalf("Run error = %v, want the out-of-window error naming %q and element %d", err, want, size)
	}
}

// runFailsBeforeSending runs prog on nodes in-process nodes, requires
// the run to fail with no message sent and no goroutine left behind,
// and returns its error.
func runFailsBeforeSending(t *testing.T, prog *exec.Program, nodes int) error {
	t.Helper()
	before := goruntime.NumGoroutine()
	var rec exec.SendRecorder
	_, err := exec.Run(prog, exec.Config{Nodes: nodes, Transport: rec.Wrap(exec.InprocTransport())})
	if err == nil {
		t.Fatal("Run succeeded, want an error")
	}
	if sent := rec.Sent(); len(sent) != 0 {
		t.Errorf("%d messages sent before the run failed, want 0 (first: %+v)", len(sent), sent[0])
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before the run, %d after", before, after)
	}
	return err
}
