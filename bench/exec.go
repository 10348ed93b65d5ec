package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sync"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/exec/cluster"
	"autopart/internal/ir"
	"autopart/internal/runtime"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// app is one application instance of a workload: a builtin program, the
// node count it runs at, and how its machine is built.
type app struct {
	name  string // metric and expectation key
	prog  string // builtin program it is compiled from
	nodes int
	build func(c *autopart.Compiled, nodes int) (*exec.Program, error)
}

func stencilApp(cfg stencil.Config, nodes int) app {
	return app{"stencil", "stencil", nodes, func(c *autopart.Compiled, n int) (*exec.Program, error) {
		return stencil.Executable(cfg, c, n)
	}}
}

func spmvApp(cfg spmv.Config, nodes int) app {
	return app{"spmv", "spmv", nodes, func(c *autopart.Compiled, n int) (*exec.Program, error) {
		return spmv.Executable(cfg, c, n)
	}}
}

func circuitApp(cfg circuit.Config, nodes int) app {
	return app{"circuit", "circuit", nodes, func(c *autopart.Compiled, n int) (*exec.Program, error) {
		return circuit.Executable(cfg, c, n, false)
	}}
}

func miniaeroApp(cfg miniaero.Config, nodes int) app {
	return app{"miniaero", "miniaero", nodes, func(c *autopart.Compiled, n int) (*exec.Program, error) {
		return miniaero.Executable(cfg, c, n)
	}}
}

// pennantApp runs PENNANT at a hint level: 0 compiles the plain source,
// 2 the source with both §6.4 hints.
func pennantApp(cfg pennant.Config, nodes, level int) app {
	name := "pennant"
	if level == 2 {
		name = "pennant-h2"
	}
	return app{name, name, nodes, func(c *autopart.Compiled, n int) (*exec.Program, error) {
		return pennant.Executable(cfg, c, n, level)
	}}
}

// The `small` configurations of cmd/execbench: shards of a few hundred
// elements, so that per-launch fixed costs are the whole cost.
var (
	smallStencil = stencil.Config{Width: 128, RowsPerNode: 4}
	smallCircuit = circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
	smallSpmv    = spmv.Config{RowsPerNode: 128, NnzPerRow: 8}
	smallAero    = miniaero.Config{DX: 4, DY: 4, DZ: 4}
	smallPennant = pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}
)

// scale is the calibrated size of a workload's apps, with the reduced
// size the smoke test runs at.
type scale struct {
	apps      []app
	steps     int
	transport string
}

func scaleOf(workload string, small bool) scale {
	if small {
		switch workload {
		case "partition-sim":
			return scale{apps: []app{spmvApp(smallSpmv, 4), stencilApp(smallStencil, 4), circuitApp(smallCircuit, 4), miniaeroApp(smallAero, 4), pennantApp(smallPennant, 4, 0)}}
		case "exec-halo":
			return scale{apps: []app{stencilApp(smallStencil, 2), miniaeroApp(smallAero, 2)}, steps: 1}
		case "exec-wide":
			return scale{apps: []app{stencilApp(smallStencil, 8), circuitApp(smallCircuit, 8), spmvApp(smallSpmv, 8), pennantApp(smallPennant, 4, 2)}, steps: 1}
		case "exec-wire":
			return scale{apps: []app{stencilApp(smallStencil, 2), circuitApp(smallCircuit, 2), spmvApp(smallSpmv, 2)}, steps: 2, transport: "tcp"}
		}
	}
	switch workload {
	case "partition-sim":
		return scale{apps: []app{spmvApp(spmv.DefaultConfig(), 32), stencilApp(stencil.DefaultConfig(), 32), circuitApp(circuit.DefaultConfig(), 32),
			miniaeroApp(miniaero.DefaultConfig(), 32), pennantApp(pennant.DefaultConfig(), 32, 0)}}
	case "exec-halo":
		return scale{apps: []app{stencilApp(stencil.DefaultConfig(), 8), miniaeroApp(miniaero.DefaultConfig(), 8)}, steps: 1}
	case "exec-wide":
		return scale{apps: []app{stencilApp(smallStencil, 128), circuitApp(smallCircuit, 128), spmvApp(smallSpmv, 128), pennantApp(smallPennant, 64, 2)}, steps: 1}
	case "exec-wire":
		return scale{apps: []app{stencilApp(stencil.DefaultConfig(), 4), circuitApp(circuit.DefaultConfig(), 4), spmvApp(spmv.DefaultConfig(), 4)}, steps: 2, transport: "tcp"}
	}
	panic("bench: no scale for " + workload)
}

// compileApps compiles the source of every app once.
func compileApps(apps []app) (map[string]*autopart.Compiled, error) {
	out := map[string]*autopart.Compiled{}
	for _, a := range apps {
		c, err := autopart.Compile(programByName(a.prog).src, autopart.Options{})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", a.prog, err)
		}
		out[a.prog] = c
	}
	return out, nil
}

// predict replays the analytic model over steps iterations from a copy
// of the program's initial owner state.
func predict(prog *exec.Program, steps int) ([]sim.IterationStats, error) {
	st := sim.NewState()
	for k, p := range prog.Owners.Owners {
		st.Owners[k] = p
	}
	var out []sim.IterationStats
	for s := 0; s < steps; s++ {
		its, err := sim.Default().RunIteration(prog.Plan.Launches(), prog.Parts, st)
		if err != nil {
			return nil, err
		}
		out = append(out, its)
	}
	return out, nil
}

func simMsgs(its sim.IterationStats) (msgs int) {
	for _, l := range its.Launches {
		for _, n := range l.Nodes {
			msgs += n.MsgsOut
		}
	}
	return msgs
}

// pinned holds a total against testdata/expect.json. The pin applies at
// the calibrated scale only.
func pinned(e *env, exp *expectations, key string, bytes float64, msgs int) bool {
	if e.small {
		return !e.corrupt
	}
	want, ok := exp.Comm[key]
	return ok && want.Bytes == bytes && want.Msgs == msgs
}

// ---- partition-sim ----

// partitionSim is the Fig. 14 path: build each app's machine, run its
// generated DPL program to concrete partitions, and price two main-loop
// iterations with the analytic model. The executor is bypassed.
type partitionSim struct {
	e        *env
	exp      *expectations
	scale    scale
	order    []int
	compiled map[string]*autopart.Compiled
	want     [][]sim.IterationStats // per app, from prepare
	progs    []*exec.Program        // last round
	got      [][]sim.IterationStats
	errs     []error
	bytes    float64
	msgs     int
	parts    int
}

const simIterations = 2

func preparePartitionSim(e *env) (instance, error) {
	exp, err := loadExpectations(e)
	if err != nil {
		return nil, err
	}
	w := &partitionSim{e: e, exp: exp, scale: scaleOf("partition-sim", e.small)}
	// The seed orders the apps within a round.
	w.order = e.rng("order").Perm(len(w.scale.apps))
	n := len(w.scale.apps)
	w.progs, w.got, w.errs = make([]*exec.Program, n), make([][]sim.IterationStats, n), make([]error, n)
	if err := w.setup(); err != nil {
		return nil, err
	}
	w.round(-1, nil, -1)
	for i, a := range w.scale.apps {
		if w.errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", a.name, w.errs[i])
		}
	}
	w.want = append([][]sim.IterationStats(nil), w.got...)
	return w, nil
}

func (w *partitionSim) setup() (err error) {
	w.compiled, err = compileApps(w.scale.apps)
	return err
}

func (w *partitionSim) round(r int, t *tracer, parent int) {
	for _, i := range w.order {
		a := w.scale.apps[i]
		id := t.begin("apps.executable", parent, r)
		prog, err := a.build(w.compiled[a.prog], a.nodes)
		t.end(id)
		w.progs[i], w.got[i], w.errs[i] = prog, nil, err
		if err != nil {
			continue
		}
		its := make([]sim.IterationStats, 0, simIterations)
		for k := 0; k < simIterations && err == nil; k++ {
			var it sim.IterationStats
			id := t.begin("sim.iteration", parent, r)
			it, err = sim.Default().RunIteration(prog.Plan.Launches(), prog.Parts, prog.Owners)
			t.end(id)
			its = append(its, it)
		}
		w.got[i], w.errs[i] = its, err
	}
}

func (w *partitionSim) check(r int) (attempted, failed int) {
	for i, a := range w.scale.apps {
		var bytes float64
		var msgs int
		for _, it := range w.got[i] {
			bytes += it.TotalBytes
			msgs += simMsgs(it)
		}
		ok := w.errs[i] == nil && pinned(w.e, w.exp, "partition-sim/"+a.name, bytes, msgs)
		if ok && w.want != nil {
			ok = reflect.DeepEqual(w.got[i], w.want[i])
		}
		if !ok {
			failed++
		}
		if r >= 0 {
			w.bytes += bytes
			w.msgs += msgs
			if w.progs[i] != nil {
				w.parts += len(w.progs[i].Parts)
			}
		}
	}
	return len(w.scale.apps), failed
}

// probe splits the Executable call of the round just run into the parts
// a user of the DPL program pays for: wiring the context and evaluating
// the partitions, and building the task plan. What is left of
// apps.executable is input generation.
func (w *partitionSim) probe(t *tracer) {
	id := t.begin("dpl.eval", -1, -1)
	for i, a := range w.scale.apps {
		if prog, c := w.progs[i], w.compiled[a.prog]; prog != nil {
			evalPartitions(c, prog, a.nodes)
		}
	}
	t.end(id)
	id = t.begin("runtime.plan", -1, -1)
	for _, a := range w.scale.apps {
		runtime.NewPlan(w.compiled[a.prog].Parallel)
	}
	t.end(id)
}

// evalPartitions wires a DPL context to a built machine and runs the
// compiled DPL program in it, as <app>.Executable does.
func evalPartitions(c *autopart.Compiled, prog *exec.Program, nodes int) {
	ctx, err := c.NewContext(nodes, prog.Machine)
	if err != nil {
		return
	}
	for _, sym := range c.ExternalSyms {
		ctx.Bind(sym, prog.Parts[sym])
	}
	_, _ = c.Evaluate(ctx)
}

func (w *partitionSim) report(m metrics, rounds int, t *tracer) {
	var partitions int
	for _, a := range w.scale.apps {
		partitions += len(w.compiled[a.prog].DPLProgram().Stmts)
	}
	m.set("dpl_partitions_per_round", float64(partitions))
	m.set("comm_bytes_per_round", w.bytes/float64(rounds))
	m.set("comm_msgs_per_round", float64(w.msgs)/float64(rounds))
	m.set("dpl.eval_partitions", float64(w.parts)/float64(rounds))
	if t == nil {
		return
	}
	eval, _ := t.probeMedian("dpl.eval")
	plan, _ := t.probeMedian("runtime.plan")
	whole, _ := t.roundMedian("apps.executable")
	m.set("apps.machine_build_ms", ms(whole-eval-plan))
}

// ---- exec-halo, exec-wide, exec-wire ----

// execWorkload runs apps on the distributed executor. The three
// workloads differ in shard size, node count and transport only.
type execWorkload struct {
	name      string
	e         *env
	exp       *expectations
	scale     scale
	order     []int
	transport exec.TransportFactory // nil for in-process queues
	compiled  map[string]*autopart.Compiled

	// expected outputs, from prepare
	refs   []*ir.Machine
	want   [][]sim.IterationStats
	seqref time.Duration

	progs []*exec.Program // from setup
	res   []*exec.Result  // last round
	nodes [][]*exec.NodeResult
	errs  []error

	wall, compute, overlap int64 // ns, summed over nodes, launches, rounds
	bytes                  float64
	msgs                   int
}

func prepareExec(e *env, name string) (instance, error) {
	exp, err := loadExpectations(e)
	if err != nil {
		return nil, err
	}
	w := &execWorkload{name: name, e: e, exp: exp, scale: scaleOf(name, e.small)}
	w.order = e.rng("order").Perm(len(w.scale.apps))
	if w.scale.transport != "" {
		if w.transport, err = exec.TransportByName(w.scale.transport); err != nil {
			return nil, err
		}
	}
	if err := w.setup(); err != nil {
		return nil, err
	}
	for i, a := range w.scale.apps {
		start := time.Now()
		ref, err := exec.RunSequentialReference(w.progs[i], w.scale.steps)
		if err != nil {
			return nil, fmt.Errorf("%s: sequential reference: %w", a.name, err)
		}
		w.seqref += time.Since(start)
		want, err := predict(w.progs[i], w.scale.steps)
		if err != nil {
			return nil, fmt.Errorf("%s: sim: %w", a.name, err)
		}
		w.refs, w.want = append(w.refs, ref), append(w.want, want)
	}
	return w, nil
}

func (w *execWorkload) setup() (err error) {
	if w.compiled, err = compileApps(w.scale.apps); err != nil {
		return err
	}
	n := len(w.scale.apps)
	w.progs, w.res, w.errs, w.nodes = make([]*exec.Program, n), make([]*exec.Result, n), make([]error, n), make([][]*exec.NodeResult, n)
	for i, a := range w.scale.apps {
		if w.progs[i], err = a.build(w.compiled[a.prog], a.nodes); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return nil
}

func (w *execWorkload) config(a app, tf exec.TransportFactory) exec.Config {
	return exec.Config{Nodes: a.nodes, Steps: w.scale.steps, Transport: tf}
}

func (w *execWorkload) round(r int, t *tracer, parent int) {
	for _, i := range w.order {
		a := w.scale.apps[i]
		id := t.begin("exec."+a.name, parent, r)
		if t == nil {
			w.res[i], w.errs[i] = exec.Run(w.progs[i], w.config(a, w.transport))
		} else {
			w.res[i], w.nodes[i], w.errs[i] = tracedRun(w.progs[i], w.config(a, w.transport), t, id, r)
		}
		t.end(id)
	}
}

// tracedRun drives the nodes the way exec.Run does, with a span around
// every node's run and around the assembly of the result.
func tracedRun(prog *exec.Program, cfg exec.Config, t *tracer, parent, round int) (*exec.Result, []*exec.NodeResult, error) {
	if cfg.Transport == nil {
		cfg.Transport = exec.InprocTransport()
	}
	tr, err := cfg.Transport(cfg.Nodes)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: %w", err)
	}
	results := make([]*exec.NodeResult, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for j := 0; j < cfg.Nodes; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			id := t.begin("exec.run_node", parent, round)
			results[j], errs[j] = exec.RunNode(prog, cfg, j, tr)
			t.end(id)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", j, err)
		}
	}
	if rep, ok := tr.(interface{ Err() error }); ok {
		if err := rep.Err(); err != nil {
			return nil, nil, err
		}
	}
	if c, ok := tr.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return nil, nil, fmt.Errorf("transport close: %w", err)
		}
	}
	id := t.begin("exec.assemble", parent, round)
	res, err := exec.AssembleResult(prog, cfg, results)
	t.end(id)
	return res, results, err
}

// verify holds one run's result against the sequential reference (bit
// for bit) and its per-node, per-launch counters against the model.
func verify(res *exec.Result, ref *ir.Machine, want []sim.IterationStats) bool {
	for name, wr := range ref.Regions {
		got := res.Machine.Regions[name]
		if got == nil {
			return false
		}
		if same, _ := wr.SameData(got); !same {
			return false
		}
	}
	if len(res.Steps) != len(want) {
		return false
	}
	for s, its := range want {
		if len(res.Steps[s].Launches) != len(its.Launches) {
			return false
		}
		for l, ls := range its.Launches {
			for j, n := range ls.Nodes {
				n.ComputeUnits = 0
				if n != res.Steps[s].Launches[l].Nodes[j] {
					return false
				}
			}
		}
	}
	return true
}

func (w *execWorkload) check(r int) (attempted, failed int) {
	for i, a := range w.scale.apps {
		res := w.res[i]
		ok := w.errs[i] == nil && verify(res, w.refs[i], w.want[i]) &&
			pinned(w.e, w.exp, w.name+"/"+a.name, res.TotalBytes(), res.TotalMsgs())
		if !ok {
			failed++
		}
		if r < 0 || w.errs[i] != nil {
			continue
		}
		w.bytes += res.TotalBytes()
		w.msgs += res.TotalMsgs()
		for _, st := range res.Steps {
			for _, l := range st.Launches {
				for _, nt := range l.Times {
					w.wall += nt.WallNS
					w.compute += nt.ComputeNS
					w.overlap += nt.OverlapNS
				}
			}
		}
	}
	return len(w.scale.apps), failed
}

// probe runs, for exec-wire, the round just run once more on in-process
// queues: the same cells on both transports.
func (w *execWorkload) probe(t *tracer) {
	if w.transport == nil {
		return
	}
	id := t.begin("transport.inproc_round", -1, -1)
	for _, i := range w.order {
		_, _ = exec.Run(w.progs[i], w.config(w.scale.apps[i], nil))
	}
	t.end(id)
}

func (w *execWorkload) report(m metrics, rounds int, t *tracer) {
	var partitions int
	for _, a := range w.scale.apps {
		partitions += len(w.compiled[a.prog].DPLProgram().Stmts)
	}
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	m.set("dpl_partitions_per_round", float64(partitions))
	m.set("comm_bytes_per_round", w.bytes/float64(rounds))
	m.set("comm_msgs_per_round", float64(w.msgs)/float64(rounds))
	m.set("exec.node_wall_ms", per(w.wall))
	m.set("exec.compute_ms", per(w.compute))
	m.set("exec.noncompute_ms", per(w.wall-w.compute))
	m.set("exec.noncompute_share", ratio(float64(w.wall-w.compute), float64(w.wall)))
	m.set("exec.overlap_ratio", ratio(float64(w.overlap), float64(w.compute)))
	m.set("exec.bytes_per_msg", ratio(w.bytes, float64(w.msgs)))
	m.set("exec.seqref_ms", ms(w.seqref))
	round := m["round_p50_ms"].Value
	m.set("exec.speedup_vs_seq", ratio(ms(w.seqref), round))
	var pred float64
	for _, steps := range w.want {
		for _, its := range steps {
			for _, l := range its.Launches {
				var slowest float64
				for _, n := range l.Nodes {
					slowest = math.Max(slowest, n.TimeOverlapped(sim.Default()))
				}
				pred += slowest
			}
		}
	}
	m.set("sim.pred_step_s", pred)
	m.set("sim.wall_residual", ratio(round/1e3, pred))
	if t == nil {
		return
	}
	if twin, ok := t.probeMedian("transport.inproc_round"); ok {
		m.set("transport.tcp_over_inproc", ratio(round, ms(twin)))
		w.wireProbes(m, t)
	}
	if w.name == "exec-wide" {
		w.weakScaling(m)
	}
}

// weakScaling runs the apps once more at a quarter of their nodes. The
// apps size themselves per node, so total work grows 4× to the full
// count and an exponent of 1.0 means wall grows with total work.
func (w *execWorkload) weakScaling(m metrics) {
	var full, quarter []float64
	for k := 0; k < 3; k++ {
		var f, q time.Duration
		for i, a := range w.scale.apps {
			n := a.nodes / 4
			prog, err := a.build(w.compiled[a.prog], n)
			if err != nil {
				return
			}
			start := time.Now()
			_, _ = exec.Run(prog, exec.Config{Nodes: n, Steps: w.scale.steps})
			q += time.Since(start)
			start = time.Now()
			_, _ = exec.Run(w.progs[i], w.config(a, nil))
			f += time.Since(start)
		}
		full, quarter = append(full, float64(f)), append(quarter, float64(q))
	}
	m.set("exec.weak_scaling_exponent", math.Log(median(full)/median(quarter))/math.Log(4))
}

// wireProbes times what only a multi-process run pays: encoding and
// decoding the program and the node results, and spawning workers. The
// worker is this binary in its worker mode.
func (w *execWorkload) wireProbes(m metrics, t *tracer) {
	var blob int
	blobs := make([][]byte, len(w.progs))
	id := t.begin("progwire.encode", -1, -1)
	for i, p := range w.progs {
		blobs[i], _ = exec.EncodeProgram(p)
		blob += len(blobs[i])
	}
	t.end(id)
	id = t.begin("progwire.decode", -1, -1)
	for _, b := range blobs {
		_, _ = exec.DecodeProgram(b)
	}
	t.end(id)
	m.set("progwire.blob_kb", float64(blob)/1024)
	id = t.begin("progwire.result_codec", -1, -1)
	for _, nrs := range w.nodes {
		for _, nr := range nrs {
			if b, err := exec.EncodeNodeResult(nr); err == nil {
				_, _ = exec.DecodeNodeResult(b)
			}
		}
	}
	t.end(id)

	self, err := os.Executable()
	if err != nil {
		return
	}
	const workers = 2
	c := circuitApp(smallCircuit, workers)
	prog, err := c.build(w.compiled["circuit"], workers)
	if err != nil {
		return
	}
	start := time.Now()
	id = t.begin("cluster.spawn_run", -1, -1)
	res, err := cluster.Spawn(prog, exec.Config{Nodes: workers, Steps: 1}, cluster.SpawnOptions{Command: []string{self, "worker"}})
	t.end(id)
	if err != nil {
		return
	}
	whole := time.Since(start)
	var slowest int64
	for j := 0; j < workers; j++ {
		var wall int64
		for _, l := range res.Steps[0].Launches {
			wall += l.Times[j].WallNS
		}
		slowest = max(slowest, wall)
	}
	m.set("cluster.bootstrap_ms", ms(whole-time.Duration(slowest)))
}
