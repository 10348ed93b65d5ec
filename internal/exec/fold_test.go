package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"autopart/internal/apps/apputil"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// manySendersSource reduces into N through two index fields of W. The
// write in the first loop fixes the iteration partition to equal(W), so
// both reductions are buffered and merged at the owners, and it makes
// each step's contributions differ from the last step's.
const manySendersSource = `
region W { cur: scalar, src: index(N), dst: index(N) }
region N { volt: scalar, charge: scalar }
for w in W {
  W[w].cur = 0.75 * W[w].cur + N[W[w].src].volt - N[W[w].dst].volt
}
for w in W {
  N[W[w].src].charge += W[w].cur
  N[W[w].dst].charge += 0 - W[w].cur
}
`

// manySendersProgram makes manySendersSource executable on nodes nodes
// with 32 elements of N and 64 wires per node, every node's wires
// pointing at every element, so each element's fold takes a
// contribution from every color. The scalars are non-integer across 4
// decades, so a sum taken in another order gives other bits.
func manySendersProgram(t *testing.T, nodes int) *Program {
	t.Helper()
	c, err := autopart.Compile(manySendersSource, autopart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const points = 32
	w, n := region.New("W", int64(2*points*nodes)), region.New("N", points)
	w.AddScalarField("cur")
	w.AddIndexField("src")
	w.AddIndexField("dst")
	n.AddScalarField("volt")
	n.AddScalarField("charge")
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		v := (rng.Float64() + 0.1) * math.Pow(10, float64(rng.Intn(4)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	src, dst := w.Index("src"), w.Index("dst")
	for i := range src {
		src[i], dst[i] = int64(i%points), rng.Int63n(points)
	}
	for _, data := range [][]float64{w.Scalar("cur"), n.Scalar("volt"), n.Scalar("charge")} {
		for i := range data {
			data[i] = value()
		}
	}
	m := ir.NewMachine().AddRegion(w).AddRegion(n)
	auto, err := apputil.InstantiateAuto(c, m, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	owners := sim.NewState().
		OwnAll("W", []string{"cur", "src", "dst"}, auto.Parts[auto.IterSym(0)]).
		OwnAll("N", []string{"volt", "charge"}, region.Equal("N_owner", n, nodes))
	return &Program{Machine: m, Plan: auto.Plan, Parts: auto.Parts, Owners: owners}
}

// TestFoldOrderManySenders holds the owners' merge folds to the
// sequential fold order where it shows in the bits: every element of N
// takes contributions from three or more colors, in- and out-of-order
// deliveries alike. The builtins' reductions reach an element from at
// most two colors, whose sum is the same in either order.
func TestFoldOrderManySenders(t *testing.T) {
	const steps = 2
	for _, nodes := range []int{4, 7} {
		prog := manySendersProgram(t, nodes)
		want, err := RunSequentialReference(prog, steps)
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]TransportFactory{"inproc": InprocTransport(), "flaky": FlakyTransport(int64(nodes), time.Millisecond)} {
			var rec SendRecorder
			res, err := Run(prog, Config{Nodes: nodes, Steps: steps, Transport: rec.Wrap(tr)})
			if err != nil {
				t.Fatalf("%d nodes, %s: %v", nodes, name, err)
			}
			if same, diff := want.Regions["N"].SameData(res.Machine.Regions["N"]); !same {
				t.Errorf("%d nodes, %s: N diverges from the sequential fold: %s", nodes, name, diff)
			}
			senders := map[[3]int][]int{} // (to, step, launch) → merge senders
			for _, s := range rec.Sent() {
				if k := [3]int{s.To, s.Step, s.Launch}; s.Kind == "merge" && !slices.Contains(senders[k], s.From) {
					senders[k] = append(senders[k], s.From)
				}
			}
			most := 0
			for _, from := range senders {
				most = max(most, len(from))
			}
			if most < 2 {
				t.Errorf("%d nodes, %s: no owner merges from two peers besides itself (at most %d)", nodes, name, most)
			}
		}
	}
}

// TestSettleFoldsOneFieldInLaunchOrder holds back node 0's pending
// finish of step 0's reduction while step 1's runs, so two pending
// finishes fold into N.charge at once, and then settles both. Every
// later launch settles the finishes touching its fields first, so in a
// run two pending finishes never share a field; this test makes them,
// and requires settle to apply them oldest first, as the sequential
// executor does.
func TestSettleFoldsOneFieldInLaunchOrder(t *testing.T) {
	const nodes, steps = 2, 2
	prog := manySendersProgram(t, nodes)
	want, err := RunSequentialReference(prog, steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: nodes, Steps: steps}
	applyDefaults(&cfg)
	tr, _ := InprocTransport()(nodes)
	peer := make(chan error, 1)
	go func() {
		_, err := RunNode(prog, cfg, 1, tr)
		peer <- err
	}()
	defer tr.CloseSend(0) // a failed launch below must not leave node 1 waiting

	nd := newNode(prog, cfg, 0, tr)
	scheds, final, err := nd.setup()
	if err != nil {
		t.Fatal(err)
	}
	last := len(scheds) - 1
	for _, sc := range scheds[:last] {
		if err := nd.runLaunch(sc); err != nil {
			t.Fatal(err)
		}
	}
	held := nd.pending
	nd.pending = nil
	if err := nd.runLaunch(scheds[last]); err != nil {
		t.Fatal(err)
	}
	nd.pending = append(held, nd.pending...)
	charge := rewrite.FieldKey{Region: "N", Field: "charge"}
	folding := 0
	for _, pf := range nd.pending {
		if pf.sched.touches[charge] {
			folding++
		}
	}
	if folding < 2 {
		t.Fatalf("%d pending finishes fold into N.charge, want two", folding)
	}
	err = nd.settle(len(nd.pending))
	tr.CloseSend(0)
	if perr := <-peer; perr != nil {
		t.Fatalf("node 1: %v", perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	r := nd.m.Regions["N"]
	got, ref, at := r.Scalar("charge"), want.Regions["N"].Scalar("charge"), r.Window().Cursor()
	for _, fo := range final {
		if fo.key.Region != "N" || fo.key.Field != "charge" {
			continue
		}
		for _, iv := range fo.owner.Sub(0).Intervals() {
			for k := iv.Lo; k < iv.Hi; k++ {
				if v := got[at.Pos(k)]; math.Float64bits(v) != math.Float64bits(ref[k]) {
					t.Errorf("N.charge[%d] = %v after settling, sequential %v", k, v, ref[k])
				}
			}
		}
	}
}
