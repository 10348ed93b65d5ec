package exec_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
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
// piece of node j is a subset of the elements j's window of its region
// holds.
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
						if w := win[tc.Region]; !tc.Set.SubsetOf(w) {
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

// scaledApp is a builtin at one node count.
type scaledApp struct {
	appCase
	nodes int
}

// wideApps are exec-wide's four apps at its node counts and sizes
// (bench/exec.go).
func wideApps(t *testing.T) []scaledApp {
	return []scaledApp{
		{appCase{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(smallStencil, compiled(t, "stencil", stencil.Source()), n)
		}}, 128},
		{appCase{"circuit", func(n int) (*exec.Program, error) {
			return circuit.Executable(smallCircuit, compiled(t, "circuit", circuit.Source), n, false)
		}}, 128},
		{appCase{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(smallSpmv, compiled(t, "spmv", spmv.Source), n)
		}}, 128},
		{appCase{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(smallPennant, compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}}, 64},
	}
}

// windowBytes returns, per node, the bytes its windows of prog's regions
// hold: held elements times the width of each field (8 bytes a scalar or
// index, 16 a range), and the bytes of one copy of the whole machine.
func windowBytes(t *testing.T, prog *exec.Program, nodes int) (perNode []int64, machine int64) {
	t.Helper()
	width := map[string]int64{}
	for name, r := range prog.Machine.Regions {
		for _, f := range r.FieldNames() {
			if k, _ := r.FieldKindOf(f); k == region.RangeField {
				width[name] += 16
			} else {
				width[name] += 8
			}
		}
		machine += r.Size() * width[name]
	}
	perNode = make([]int64, nodes)
	for j := range perNode {
		win, _, err := exec.NodeWindows(prog, exec.Config{Nodes: nodes}, j)
		if err != nil {
			t.Fatalf("node %d: %v", j, err)
		}
		for name, set := range win {
			perNode[j] += set.Len() * width[name]
		}
	}
	return perNode, machine
}

// TestNodeStorageUnderOneAndAHalfCopies holds what all nodes together
// store to at most 1.5 copies of the machine on exec-wide's four apps: a
// node copies the union of the subregions it touches. A node copying the
// hull of them stores 18.3 copies on circuit and 7.5 on pennant-h2,
// whose scattered sets span most of each region.
func TestNodeStorageUnderOneAndAHalfCopies(t *testing.T) {
	for _, app := range wideApps(t) {
		prog, err := app.build(app.nodes)
		if err != nil {
			t.Fatal(err)
		}
		perNode, machine := windowBytes(t, prog, app.nodes)
		var sum int64
		for _, b := range perNode {
			sum += b
		}
		copies := float64(sum) / float64(machine)
		t.Logf("%s on %d nodes: nodes store %.2f machine copies", app.name, app.nodes, copies)
		if copies > 1.5 {
			t.Errorf("%s on %d nodes: nodes store %.2f machine copies, want at most 1.5", app.name, app.nodes, copies)
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

// TestWindowBytesPerNodeFlat pins what one node stores and allocates
// at 256 nodes: on weak-scaled circuit and pennant-h2, every node's
// windows hold at most 2× the machine's bytes per node, at 32 nodes and
// at 256, and a run allocates at most 1.2× as many bytes per node at 256
// nodes as at 32. A node copying the hull of its scattered sets holds a
// share of the machine that does not shrink with the node count; a
// transport that pays every node's end of stream into every other
// node's receive path allocates per node in proportion to the node
// count.
func TestWindowBytesPerNodeFlat(t *testing.T) {
	const ceiling, allocGrowth = 2.0, 1.2
	wide := wideApps(t)
	for _, app := range []appCase{wide[1].appCase, wide[3].appCase} {
		var allocs []float64 // bytes allocated per node, by node count
		for _, nodes := range []int{32, 256} {
			prog, err := app.build(nodes)
			if err != nil {
				t.Fatal(err)
			}
			perNode, machine := windowBytes(t, prog, nodes)
			share := float64(machine) / float64(nodes)
			most := slices.Max(perNode)
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			if _, err := exec.Run(prog, exec.Config{Nodes: nodes}); err != nil {
				t.Fatal(err)
			}
			goruntime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(nodes))
			t.Logf("%s on %d nodes: largest node window %.1f KB, %.2f× the machine's %.1f KB per node; %.0f KB allocated per node",
				app.name, nodes, float64(most)/1024, float64(most)/share, share/1024, allocs[len(allocs)-1]/1024)
			if float64(most) > ceiling*share {
				t.Errorf("%s on %d nodes: a node's windows hold %d bytes, %.2f× the machine's %.0f bytes per node, want at most %.0f×",
					app.name, nodes, most, float64(most)/share, share, ceiling)
			}
		}
		if growth := allocs[1] / allocs[0]; growth > allocGrowth {
			t.Errorf("%s: a run allocates %.0f KB per node at 256 nodes, %.2f× the %.0f KB at 32, want at most %.1f×",
				app.name, allocs[1]/1024, growth, allocs[0]/1024, allocGrowth)
		}
	}
}
