package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/runtime"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// appCase builds an executable program for one builtin at a node count.
type appCase struct {
	name  string
	build func(nodes int) (*exec.Program, error)
}

var (
	compileMu    sync.Mutex
	compileCache = map[string]*autopart.Compiled{}
)

// compiled compiles a source once per test binary (miniaero takes a
// visible fraction of a second; the differential matrix would recompile
// it per node count otherwise).
func compiled(t *testing.T, key, src string) *autopart.Compiled {
	t.Helper()
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := compileCache[key]; ok {
		return c
	}
	c, err := autopart.Compile(src, autopart.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", key, err)
	}
	compileCache[key] = c
	return c
}

// appCases is every builtin the executor must reproduce bit-exactly,
// including the hinted circuit variant (its solution differs from the
// unhinted one only in which partitions are externs, but it is the
// §5.2 configuration the paper discusses).
func appCases(t *testing.T) []appCase {
	t.Helper()
	return []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(stencil.DefaultConfig(), compiled(t, "stencil", stencil.Source()), n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit", circuit.Source), n, false)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(spmv.DefaultConfig(), compiled(t, "spmv", spmv.Source), n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(miniaero.DefaultConfig(), compiled(t, "miniaero", miniaero.Source()), n)
		}},
		{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.DefaultConfig(), compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}},
	}
}

// TestDistributedMatchesSequential is the executor's headline guarantee:
// for every builtin, running the compiled plan on 1..N goroutine nodes
// with message-passing ghost exchange produces data bit-identical to the
// sequential parallel-semantics executor. Two steps so ownership
// evolution (stencil's vin/vout ping-pong, circuit's WriteDiscard
// updates) forces real ghost re-exchange in the second step.
func TestDistributedMatchesSequential(t *testing.T) {
	const steps = 2
	for _, app := range appCases(t) {
		for _, nodes := range []int{1, 2, 3, 8} {
			app, nodes := app, nodes
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				want, err := exec.RunSequentialReference(prog, steps)
				if err != nil {
					t.Fatalf("sequential reference: %v", err)
				}
				res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps})
				if err != nil {
					t.Fatalf("distributed run: %v", err)
				}
				for name, wr := range want.Regions {
					same, diff := wr.SameData(res.Machine.Regions[name])
					if !same {
						t.Errorf("region %s diverges from sequential: %s", name, diff)
					}
				}
				if nodes > 1 && res.TotalBytes() == 0 {
					t.Errorf("expected nonzero communication on %d nodes", nodes)
				}
				if nodes == 1 && res.TotalBytes() != 0 {
					t.Errorf("single node should not communicate, shipped %.0f bytes", res.TotalBytes())
				}
			})
		}
	}
}

// TestGuardedRelaxationActive pins down that the miniaero differential
// case really exercises §5.1: its plan carries guarded reduction
// requirements (several per field, through different face partitions),
// so the bit-identity above covers the guarded ship path.
func TestGuardedRelaxationActive(t *testing.T) {
	prog, err := miniaero.Executable(miniaero.DefaultConfig(), compiled(t, "miniaero", miniaero.Source()), 4)
	if err != nil {
		t.Fatal(err)
	}
	guarded := 0
	for _, task := range prog.Plan.Tasks {
		for _, req := range task.Launch.Reqs {
			if req.Priv == runtime.Reduce && req.Guarded {
				guarded++
			}
		}
	}
	if guarded == 0 {
		t.Fatal("miniaero plan has no guarded reductions; the §5.1 differential case is vacuous")
	}
}

// TestPrivateSubPartitionShrinksBuffers pins down that the hinted cases
// really exercise §5.2: unguarded reductions carry a private
// sub-partition, and the measured reduction-buffer allocation is
// strictly smaller than the full instance subregions would be. The two
// cases shrink differently: circuit-hint's node instances are partly
// shared, so buffers shrink but survive; pennant's hints prove the
// reduction instances entirely private, so the buffers vanish outright
// (contributions reduce directly into the local instances).
func TestPrivateSubPartitionShrinksBuffers(t *testing.T) {
	cases := []struct {
		appCase
		wantZero bool
	}{
		{appCase{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}}, false},
		{appCase{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.DefaultConfig(), compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}}, true},
	}
	const nodes = 4
	for _, app := range cases {
		t.Run(app.name, func(t *testing.T) {
			prog, err := app.build(nodes)
			if err != nil {
				t.Fatal(err)
			}
			private := 0
			var full float64 // buffer elems if §5.2 were off
			for _, task := range prog.Plan.Tasks {
				for _, req := range task.Launch.Reqs {
					if req.Priv != runtime.Reduce || req.Guarded {
						continue
					}
					if req.PrivateSym != "" {
						private++
					}
					p := prog.Parts[req.Sym]
					for j := 0; j < nodes; j++ {
						if !p.Sub(j).Empty() {
							full += float64(p.Sub(j).Len()) * float64(len(req.Fields))
						}
					}
				}
			}
			if private == 0 {
				t.Fatal("no reduction requirement carries a private sub-partition; the §5.2 case is vacuous")
			}
			res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: 1})
			if err != nil {
				t.Fatal(err)
			}
			var measured float64
			for _, lc := range res.Steps[0].Launches {
				for _, ns := range lc.Nodes {
					measured += ns.BufferElems
				}
			}
			if app.wantZero {
				if measured != 0 {
					t.Errorf("expected fully-private instances to need no buffers, measured %.0f elems", measured)
				}
			} else if measured <= 0 {
				t.Error("no reduction buffers were allocated")
			}
			if measured >= full {
				t.Errorf("private sub-partitions did not shrink buffers: measured %.0f elems, full instances %.0f", measured, full)
			}
		})
	}
}

// TestCommMatchesSim holds the executor's charged communication to two
// things it does not derive from: the messages each node actually sent,
// and the analytic model. On every builtin at 3 and 8 nodes, each
// node's per-launch MsgsOut must equal the messages it handed the
// transport and BytesOut their payload, and every per-node, per-launch
// counter sim predicts must match exactly — bytes, messages, fragments,
// and reduction-buffer elements. ComputeUnits is excluded by design:
// the model prices compute analytically (work-per-element times
// elements) while the executor reports zero, since wall-clock compute
// has no place in a determinism test. That is the only intentional
// divergence.
func TestCommMatchesSim(t *testing.T) {
	const steps = 2
	for _, app := range appCases(t) {
		t.Run(app.name, func(t *testing.T) {
			for _, nodes := range []int{3, 8} {
				t.Run("nodes="+itoa(nodes), func(t *testing.T) {
					prog, err := app.build(nodes)
					if err != nil {
						t.Fatal(err)
					}
					var rec exec.SendRecorder
					cfg := exec.Config{Nodes: nodes, Steps: steps, Transport: rec.Wrap(exec.InprocTransport())}
					res, err := exec.Run(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkSends(t, res, rec.Sent(), sim.Default().BytesPerElem)
					// Run does not mutate prog.Owners, so the same state seeds
					// the model; RunIteration then evolves it step by step
					// exactly as the executor's schedule replayed it.
					model := sim.Default()
					launches := prog.Plan.Launches()
					for step := 0; step < steps; step++ {
						its, err := model.RunIteration(launches, prog.Parts, prog.Owners)
						if err != nil {
							t.Fatalf("step %d: sim: %v", step, err)
						}
						for li, ls := range its.Launches {
							measured := res.Steps[step].Launches[li]
							for j := range ls.Nodes {
								want, got := ls.Nodes[j], measured.Nodes[j]
								want.ComputeUnits, got.ComputeUnits = 0, 0
								if want != got {
									t.Errorf("step %d launch %s node %d: sim predicts %+v, executor measured %+v",
										step, ls.Name, j, want, got)
								}
							}
						}
					}
					if res.TotalBytes() == 0 {
						t.Error("cross-check is vacuous: no bytes moved")
					}
				})
			}
		})
	}
}

// TestScheduleMatchesAllPairs holds every node's schedule to the
// all-pairs derivation it shortcuts: on every builtin of
// TestCommMatchesSim at 3 and 8 nodes, each node's transfer lists and
// statistics for every launch of two steps must be exactly those of
// trying every peer against every owner.
func TestScheduleMatchesAllPairs(t *testing.T) {
	for _, app := range appCases(t) {
		for _, nodes := range []int{3, 8} {
			prog, err := app.build(nodes)
			if err != nil {
				t.Fatalf("%s: build: %v", app.name, err)
			}
			if err := exec.CheckScheduleOracle(prog, exec.Config{Nodes: nodes, Steps: 2}); err != nil {
				t.Errorf("%s nodes=%d: %v", app.name, nodes, err)
			}
		}
	}
}

// checkSends compares each node's charged per-launch MsgsOut and
// BytesOut with what it handed the transport.
func checkSends(t *testing.T, res *exec.Result, sent []exec.SentMsg, bpe float64) {
	t.Helper()
	type row struct{ step, launch, node int }
	msgs, elems := map[row]int{}, map[row]int{}
	for _, m := range sent {
		r := row{m.Step, m.Launch, m.From}
		msgs[r]++
		elems[r] += m.Elems
	}
	total := 0
	for step, sc := range res.Steps {
		for li, lc := range sc.Launches {
			for j, ns := range lc.Nodes {
				r := row{step, li, j}
				if msgs[r] != ns.MsgsOut || float64(elems[r])*bpe != ns.BytesOut {
					t.Errorf("step %d launch %s node %d: sent %d messages of %d elements, charged MsgsOut %d BytesOut %.0f",
						step, lc.Name, j, msgs[r], elems[r], ns.MsgsOut, ns.BytesOut)
				}
				total += ns.MsgsOut
			}
		}
	}
	if total != len(sent) {
		t.Errorf("%d messages sent, %d charged", len(sent), total)
	}
}

// TestMissingOwnerFailsBeforeSending deletes the initial owner of a
// field circuit first names after launch 0. Every node derives its whole
// schedule before its first send, so Run must fail naming the field
// with no message sent and no goroutine left behind — not after launch
// 0's traffic is already in flight.
func TestMissingOwnerFailsBeforeSending(t *testing.T) {
	const nodes = 3
	prog, err := circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit", circuit.Source), nodes, false)
	if err != nil {
		t.Fatal(err)
	}
	var victim sim.FieldKey
	named := map[sim.FieldKey]bool{}
	for li, task := range prog.Plan.Tasks {
		for _, req := range task.Launch.Reqs {
			for _, f := range req.Fields {
				fk := sim.FieldKey{Region: req.Region, Field: f}
				if li > 0 && victim.Field == "" && !named[fk] && req.Priv != runtime.WriteDiscard {
					victim = fk
				}
			}
		}
		for _, req := range task.Launch.Reqs {
			for _, f := range req.Fields {
				named[sim.FieldKey{Region: req.Region, Field: f}] = true
			}
		}
	}
	if victim.Field == "" {
		t.Fatal("circuit names every field in launch 0; the test is vacuous")
	}
	owners := sim.NewState()
	for fk, p := range prog.Owners.Owners {
		if fk != victim {
			owners.Own(fk.Region, fk.Field, p)
		}
	}
	prog.Owners = owners

	err = runFailsBeforeSending(t, prog, nodes)
	want := fmt.Sprintf("no owner for %s.%s", victim.Region, victim.Field)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want one naming %q", err, want)
	}
}

// cmd/run's -size small configs.
var (
	smallStencil = stencil.Config{Width: 128, RowsPerNode: 4}
	smallCircuit = circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
	smallSpmv    = spmv.Config{RowsPerNode: 128, NnzPerRow: 8}
	smallAero    = miniaero.Config{DX: 4, DY: 4, DZ: 4}
	smallPennant = pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}
)

// TestOutputDigests pins the values, not only the agreement: the
// distributed run and RunSequentialReference share one shard
// interpreter, so a change in what it computes would pass every
// differential test above. The sha256 of each builtin's final region
// data after 2 steps on 3 nodes, at cmd/run's -size small configs, must
// stay exactly these.
func TestOutputDigests(t *testing.T) {
	golden := map[string]string{
		"stencil":      "854eddb67c1f82898393c278c96454ca9c7d9aeb0c8bef37e21a14f50ca33153",
		"circuit":      "1416620aa04fdec18aa441a010a6f1d28145450b5b1feb5e77609aef9df83ede",
		"circuit-hint": "1416620aa04fdec18aa441a010a6f1d28145450b5b1feb5e77609aef9df83ede",
		"spmv":         "9d4f84ac34e39be9e0b96e8f06e9cad7397f93cdc23ed3250fba0adf01c822d9",
		"miniaero":     "a3ff442e277c7be6d44fb046350c1c77915898302c801ccf8a37ab21a7c1ff8a",
		"pennant-h2":   "281551ab054a873bc357e475719d6db2dba8d9f7e1720023a6b305ff80537dfb",
	}
	cases := []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(smallStencil, compiled(t, "stencil", stencil.Source()), n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			return circuit.Executable(smallCircuit, compiled(t, "circuit", circuit.Source), n, false)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(smallCircuit, compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(smallSpmv, compiled(t, "spmv", spmv.Source), n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(smallAero, compiled(t, "miniaero", miniaero.Source()), n)
		}},
		{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(smallPennant, compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}},
	}
	const nodes, steps = 3, 2
	for _, app := range cases {
		prog, err := app.build(nodes)
		if err != nil {
			t.Fatalf("%s: build: %v", app.name, err)
		}
		res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps})
		if err != nil {
			t.Fatalf("%s: run: %v", app.name, err)
		}
		if got := machineDigest(res.Machine); got != golden[app.name] {
			t.Errorf("%s: final data sha256 %s, want %s", app.name, got, golden[app.name])
		}
	}

	// The builtins' data sums exactly in any order, so the digests above
	// cannot see a float fold done out of order. These runs (circuit on
	// 16 nodes, miniaero and pennant-h2 on 8) refill every scalar field
	// with non-integer values first, at node counts where a node holds
	// several runs of a region, so that Fold.Apply, FlushShard and
	// installField translate positions across held intervals; each is
	// also held bit-exact to the sequential reference.
	nonInteger := []struct {
		app    appCase
		nodes  int
		digest string
	}{
		{cases[1], 16, "86090ad7361368f5ee3320ff27be7e1250a6039c489bd47d501775acb35624d3"},
		{cases[4], 8, "95eda150dd108f4136000a822860d5355063182c262b7d145652faa3cc1187e7"},
		{cases[5], 8, "fc282173a281ad69075f110ce480f8cf2373cf72577c7b7c6f30443151816b8d"},
	}
	for _, c := range nonInteger {
		prog, err := c.app.build(c.nodes)
		if err != nil {
			t.Fatalf("%s: build: %v", c.app.name, err)
		}
		if runs := maxHeldRuns(t, prog, c.nodes); runs < 2 {
			t.Errorf("%s on %d nodes: every window is one interval; the case places nothing across runs", c.app.name, c.nodes)
		}
		prog.Machine = refill(prog.Machine, 1)
		res, err := exec.Run(prog, exec.Config{Nodes: c.nodes, Steps: steps})
		if err != nil {
			t.Fatalf("%s: run: %v", c.app.name, err)
		}
		ref, err := exec.RunSequentialReference(prog, steps)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.app.name, err)
		}
		got := machineDigest(res.Machine)
		if want := machineDigest(ref); got != want {
			t.Errorf("%s on %d nodes, non-integer data: distributed sha256 %s, sequential reference %s", c.app.name, c.nodes, got, want)
		}
		if got != c.digest {
			t.Errorf("%s on %d nodes, non-integer data: final data sha256 %s, want %s", c.app.name, c.nodes, got, c.digest)
		}
	}
}

// maxHeldRuns returns the most intervals any node's window of any region
// holds.
func maxHeldRuns(t *testing.T, prog *exec.Program, nodes int) int {
	t.Helper()
	most := 0
	for j := 0; j < nodes; j++ {
		win, _, err := exec.NodeWindows(prog, exec.Config{Nodes: nodes}, j)
		if err != nil {
			t.Fatalf("node %d: %v", j, err)
		}
		for _, set := range win {
			most = max(most, set.NumIntervals())
		}
	}
	return most
}

// refill returns a copy of m whose scalar fields hold seeded non-integer
// values between 1e-3 and 1e9 in magnitude, of either sign.
func refill(m *ir.Machine, seed int64) *ir.Machine {
	out := m.Clone()
	names := make([]string, 0, len(out.Regions))
	for name := range out.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	for _, name := range names {
		r := out.Regions[name]
		for _, f := range r.FieldNames() {
			if k, _ := r.FieldKindOf(f); k != region.ScalarField {
				continue
			}
			data := r.Scalar(f)
			for i := range data {
				data[i] = (rng.Float64() + 0.1) * math.Pow(10, float64(rng.Intn(13)-3))
				if rng.Intn(2) == 0 {
					data[i] = -data[i]
				}
			}
		}
	}
	return out
}

// machineDigest hashes every region's name, size and fields (name,
// kind, little-endian values) in sorted order.
func machineDigest(m *ir.Machine) string {
	names := make([]string, 0, len(m.Regions))
	for name := range m.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		r := m.Regions[name]
		fmt.Fprintf(h, "%s %d\n", name, r.Size())
		for _, f := range r.FieldNames() {
			kind, _ := r.FieldKindOf(f)
			fmt.Fprintf(h, "%s %s\n", f, kind)
			var data any
			switch kind {
			case region.ScalarField:
				data = r.Scalar(f)
			case region.IndexField:
				data = r.Index(f)
			default:
				data = r.Ranges(f)
			}
			if err := binary.Write(h, binary.LittleEndian, data); err != nil {
				panic(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionDigests pins the partitions the generated DPL programs
// evaluate, not only the traffic they cause: a wrong partition with the
// same byte and message totals would pass TestCommMatchesSim and the
// benchmark's pinned counters. The sha256 of every evaluated partition
// of the five apps (pennant without hints) at the -size small configs
// on 8 nodes must stay exactly these.
func TestPartitionDigests(t *testing.T) {
	golden := map[string]string{
		"stencil":  "57996573dcae15c96713966254636052d3cb2061bcb2fe254659ece232eac2c5",
		"circuit":  "8deab1a0f59a90d6c7b0db9ad01a3237791c8797eeeb75eb8947ae75e101eee7",
		"spmv":     "54999a658255404dddeaeb98b8359cf1ea956e2664490b363040ada8aaebd4a4",
		"miniaero": "799488e5c57fd88e1f283875dbc3483370f828e6d2d0e7975c0f648af8b1ee3e",
		"pennant":  "29344d65965404a6d24e3e46a6d4afc364316ec538fec7b74c6e5c2465cbd2a4",
	}
	cases := []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(smallStencil, compiled(t, "stencil", stencil.Source()), n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			return circuit.Executable(smallCircuit, compiled(t, "circuit", circuit.Source), n, false)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(smallSpmv, compiled(t, "spmv", spmv.Source), n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(smallAero, compiled(t, "miniaero", miniaero.Source()), n)
		}},
		{"pennant", func(n int) (*exec.Program, error) {
			return pennant.Executable(smallPennant, compiled(t, "pennant", pennant.Source()), n, 0)
		}},
	}
	for _, app := range cases {
		prog, err := app.build(8)
		if err != nil {
			t.Fatalf("%s: build: %v", app.name, err)
		}
		if got := partitionDigest(prog.Parts); got != golden[app.name] {
			t.Errorf("%s: partition sha256 %s, want %s", app.name, got, golden[app.name])
		}
	}
}

// partitionDigest hashes every partition's symbol, parent and colour
// count, then each colour's intervals, in symbol order.
func partitionDigest(parts map[string]*region.Partition) string {
	syms := make([]string, 0, len(parts))
	for sym := range parts {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	h := sha256.New()
	for _, sym := range syms {
		p := parts[sym]
		fmt.Fprintf(h, "%s %s %d\n", sym, p.Parent().Name(), p.NumSubs())
		for c, s := range p.Subs() {
			fmt.Fprintf(h, "%d:", c)
			for _, iv := range s.Intervals() {
				fmt.Fprintf(h, " %d,%d", iv.Lo, iv.Hi)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
