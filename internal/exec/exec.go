// Package exec is the distributed SPMD executor: it actually runs a
// compiled program's task plan on N goroutine-backed nodes, where the
// rest of the repo only models that execution (package sim prices it,
// package rewrite checks it sequentially).
//
// Each node owns the subregions the solved partitions assign to its
// color and holds one window of each region: a copy of the union of the
// node's subregions of every partition its launches name on the region
// and of every owner the run passes through — exactly what it touches,
// not the hull of it. Within the window only the owned
// elements (plus freshly fetched ghosts) are valid. A set outside the
// window is a named error before any message moves, never an index
// panic. A cmd/node worker still receives the whole machine in its
// program blob; the window bounds what the node holds while it runs.
//
// Valid-instance tracking mirrors package sim exactly: a field's owner
// partition says which node holds each element's up-to-date value,
// writes move ownership to the writing partition, and ghosts are
// refetched every launch. Before a launch, every ReadOnly/ReadWrite
// requirement pulls its subregion's remote-owned part from the owners;
// after it, §5.1 guarded reductions ship remote-owned results back and
// unguarded reductions merge per-node buffers to the owners in a fixed
// color order (see rewrite.MergeShardReductions) — which is why results
// are bit-identical to the sequential executor on any node count.
//
// Execution is dependency-driven, not bulk-synchronous. Before its
// first send, each node derives its whole protocol from read-only
// metadata — the partitions and one replay of the owner map
// (evolveOwners) — as the exact messages it sends and receives at every
// (step, launch), and as its windows (see schedule). It then issues all
// of a launch's sends before blocking on any receive, and starts the
// shard the moment its last ghost dependency lands. Write-back receives
// and reduction folds are deferred until a later launch touches the
// fields they write (or the run ends), so a launch whose fields are
// disjoint from in-flight write-backs computes while that communication
// is still in the air.
// Deadlock freedom: sends never block (transports buffer unboundedly),
// so the only waits are receives, and every expected message is sent
// by a peer deriving its schedule from the same metadata. Determinism
// survives because deliveries are matched by tag rather than arrival
// order, and every same-field write sequence (ghost installs, ship
// installs, ordered folds) happens in the launch order the sequential
// executor uses.
//
// All data moves as messages through a Transport into each receiver's
// mailbox (put there directly by the sender in process by default, by
// the socket mesh's stream readers over loopback TCP, or with injected
// latency by the chaos transport); nodes never share mutable memory.
// The executor charges the traffic of its schedule in the units sim
// predicts (sim.NodeStats), a test holds those counters to the messages
// actually sent, and another to sim's prediction; it also times each
// launch's compute and communication overlap (NodeTiming).
package exec

import (
	"fmt"
	"io"
	"sync"

	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// Config parameterizes a run.
type Config struct {
	// Nodes is the number of executor nodes (colors). Every partition in
	// the program must have exactly this many subregions.
	Nodes int
	// Steps is the number of main-loop iterations (default 1).
	Steps int
	// BytesPerElem is the accounting size of one element of one field,
	// matching sim.Model.BytesPerElem (default 8).
	BytesPerElem float64
	// Transport builds the message fabric (default InprocTransport()).
	Transport TransportFactory
}

// Program is an executable instance: a machine holding the initial
// data, the task plan, the evaluated partitions, and the initial
// valid-instance distribution.
type Program struct {
	Machine *ir.Machine
	Plan    *runtime.Plan
	Parts   map[string]*region.Partition
	// Owners is the initial owner partition per field (the same state a
	// sim run starts from). Run does not mutate it.
	Owners *sim.State
}

// NodeTiming is one node's measured wall-clock for one launch.
type NodeTiming struct {
	// WallNS is time spent driving this launch: scheduling, sends,
	// receives, compute, plus any deferred finish work later settled on
	// its behalf.
	WallNS int64
	// ComputeNS is the shard execution window.
	ComputeNS int64
	// OverlapNS is the part of the compute window during which at least
	// one expected write-back message (this launch's or an earlier
	// deferred one's) had not yet arrived — compute genuinely hiding
	// communication latency.
	OverlapNS int64
}

// LaunchComm is the measured communication of one launch, in the units
// sim.LaunchStats predicts. ComputeUnits stays zero: compute cost is
// analytic-only in the model and has no measured counterpart.
type LaunchComm struct {
	Name       string
	Nodes      []sim.NodeStats
	Times      []NodeTiming
	TotalBytes float64
	TotalMsgs  int
}

// StepComm is the measured communication of one main-loop iteration.
type StepComm struct {
	Launches   []LaunchComm
	TotalBytes float64
	TotalMsgs  int
}

// Result is the outcome of a run: the gathered final data and the
// measured per-step communication.
type Result struct {
	Machine *ir.Machine
	Steps   []StepComm
}

// TotalBytes sums shipped bytes over all steps.
func (r *Result) TotalBytes() float64 {
	var total float64
	for _, s := range r.Steps {
		total += s.TotalBytes
	}
	return total
}

// TotalMsgs sums messages over all steps.
func (r *Result) TotalMsgs() int {
	total := 0
	for _, s := range r.Steps {
		total += s.TotalMsgs
	}
	return total
}

// validate checks the program against the config before spawning nodes.
func validate(prog *Program, cfg Config) error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("exec: need at least 1 node, got %d", cfg.Nodes)
	}
	for sym, p := range prog.Parts {
		if p.NumSubs() != cfg.Nodes {
			return fmt.Errorf("exec: partition %q has %d colors, want %d", sym, p.NumSubs(), cfg.Nodes)
		}
	}
	if prog.Owners == nil {
		return fmt.Errorf("exec: program has no initial owner state")
	}
	for fk, p := range prog.Owners.Owners {
		if p.NumSubs() != cfg.Nodes {
			return fmt.Errorf("exec: owner of %s.%s has %d colors, want %d", fk.Region, fk.Field, p.NumSubs(), cfg.Nodes)
		}
		r := prog.Machine.Regions[fk.Region]
		if r == nil || !r.HasField(fk.Field) {
			return fmt.Errorf("exec: owner declared for unknown field %s.%s", fk.Region, fk.Field)
		}
	}
	for _, t := range prog.Plan.Tasks {
		if _, ok := prog.Parts[t.Launch.IterSym]; !ok {
			return fmt.Errorf("exec: launch %s: unbound iteration partition %q", t.Launch.Name, t.Launch.IterSym)
		}
		for _, req := range t.Launch.Reqs {
			if _, ok := prog.Parts[req.Sym]; !ok {
				return fmt.Errorf("exec: launch %s: unbound partition %q", t.Launch.Name, req.Sym)
			}
			if req.PrivateSym != "" {
				if _, ok := prog.Parts[req.PrivateSym]; !ok {
					return fmt.Errorf("exec: launch %s: unbound private partition %q", t.Launch.Name, req.PrivateSym)
				}
			}
			if req.TouchedSym != "" {
				if _, ok := prog.Parts[req.TouchedSym]; !ok {
					return fmt.Errorf("exec: launch %s: unbound touched partition %q", t.Launch.Name, req.TouchedSym)
				}
			}
		}
	}
	return nil
}

// applyDefaults fills the zero-value Config fields in place.
func applyDefaults(cfg *Config) {
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	if cfg.BytesPerElem == 0 {
		cfg.BytesPerElem = sim.Default().BytesPerElem
	}
}

// NodeResult is one node's share of a run's outcome: its per-step,
// per-launch measured statistics and timings, plus the final values of
// the elements it owns (packed per field in the deterministic gather
// order). RunNode produces one; AssembleResult recombines one per node
// into a Result; EncodeNodeResult moves one across a process boundary.
type NodeResult struct {
	ID    int
	Stats [][]sim.NodeStats
	Times [][]NodeTiming
	// final holds one packed piece per final owner (sorted field keys,
	// see evolveOwners): this node's owned slice of the field, with the
	// region/field names stamped for cross-process validation.
	final []message
}

// RunNode executes node id's share of the program against tr: the
// single-node body of Run, exported so a worker process can run exactly
// one color of a multi-process deployment. It drives the node's launch
// loop, waits until every sender has ended, then packs the node's
// finally-owned data.
// The caller owns the transport's lifecycle (deferred Err, Close).
func RunNode(prog *Program, cfg Config, id int, tr Transport) (*NodeResult, error) {
	applyDefaults(&cfg)
	if err := validate(prog, cfg); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.Nodes {
		return nil, fmt.Errorf("exec: node id %d out of range [0, %d)", id, cfg.Nodes)
	}
	nd := newNode(prog, cfg, id, tr)
	final, runErr := nd.run()
	// Closing the send side on exit (normal or error, including a
	// schedule error that holds for this node only) unblocks peers:
	// a take waiting on this node fails loudly instead of deadlocking.
	tr.CloseSend(id)
	<-nd.mb.ends.drained
	if runErr != nil {
		return nil, runErr
	}
	if err := nd.mb.leftoverErr(); err != nil {
		return nil, err
	}

	nr := &NodeResult{ID: id, Stats: nd.stats, Times: nd.times}
	for _, fo := range final {
		r := nd.m.Regions[fo.key.Region]
		if r == nil {
			return nil, fmt.Errorf("exec: gather: owner declared for unknown region %q", fo.key.Region)
		}
		msg, err := packField(id, r, fo.key.Field, fo.owner.Sub(id))
		if err != nil {
			return nil, err
		}
		msg.region, msg.field = fo.key.Region, fo.key.Field
		nr.final = append(nr.final, msg)
	}
	return nr, nil
}

// AssembleResult combines one NodeResult per color into the run's
// Result: for every field, each element's final value comes from its
// final owner's packed piece, installed in ascending color order (the
// same order gather always used, so assembly is bit-identical whether
// the results crossed a process boundary or not). Elements outside the
// final owner's union keep their initial values — under the coherence
// protocol they have no valid copy anywhere.
func AssembleResult(prog *Program, cfg Config, results []*NodeResult) (*Result, error) {
	applyDefaults(&cfg)
	n := cfg.Nodes
	if len(results) != n {
		return nil, fmt.Errorf("exec: assemble: %d node results for %d nodes", len(results), n)
	}
	fos := evolveOwners(prog, cfg.Steps, nil)
	for j, nr := range results {
		if nr == nil {
			return nil, fmt.Errorf("exec: assemble: missing result for node %d", j)
		}
		if nr.ID != j {
			return nil, fmt.Errorf("exec: assemble: result %d claims node id %d", j, nr.ID)
		}
		if len(nr.Stats) != cfg.Steps || len(nr.Times) != cfg.Steps {
			return nil, fmt.Errorf("exec: assemble: node %d reports %d/%d steps, want %d", j, len(nr.Stats), len(nr.Times), cfg.Steps)
		}
		if len(nr.final) != len(fos) {
			return nil, fmt.Errorf("exec: assemble: node %d packed %d field pieces, want %d", j, len(nr.final), len(fos))
		}
	}

	final := prog.Machine.Clone()
	for i, fo := range fos {
		out := final.Regions[fo.key.Region]
		if out == nil {
			return nil, fmt.Errorf("exec: gather: owner declared for unknown region %q", fo.key.Region)
		}
		for c := 0; c < n; c++ {
			piece := &results[c].final[i]
			if piece.region != fo.key.Region || piece.field != fo.key.Field || !piece.set.Equal(fo.owner.Sub(c)) {
				return nil, fmt.Errorf("exec: assemble: node %d piece %d is %s.%s %s, want %s.%s %s",
					c, i, piece.region, piece.field, piece.set, fo.key.Region, fo.key.Field, fo.owner.Sub(c))
			}
			if err := installField(c, out, fo.key.Field, piece); err != nil {
				return nil, err
			}
		}
	}

	res := &Result{Machine: final}
	for step := 0; step < cfg.Steps; step++ {
		sc := StepComm{}
		for li, t := range prog.Plan.Tasks {
			lc := LaunchComm{
				Name:  t.Launch.Name,
				Nodes: make([]sim.NodeStats, n),
				Times: make([]NodeTiming, n),
			}
			for j := 0; j < n; j++ {
				if len(results[j].Stats[step]) != len(prog.Plan.Tasks) {
					return nil, fmt.Errorf("exec: assemble: node %d step %d reports %d launches, want %d",
						j, step, len(results[j].Stats[step]), len(prog.Plan.Tasks))
				}
				ns := results[j].Stats[step][li]
				lc.Nodes[j] = ns
				lc.Times[j] = results[j].Times[step][li]
				lc.TotalBytes += ns.BytesOut
				lc.TotalMsgs += ns.MsgsOut
			}
			sc.TotalBytes += lc.TotalBytes
			sc.TotalMsgs += lc.TotalMsgs
			sc.Launches = append(sc.Launches, lc)
		}
		res.Steps = append(res.Steps, sc)
	}
	return res, nil
}

// Run executes the program's plan cfg.Steps times on cfg.Nodes nodes
// and gathers the distributed final state back into one machine. All
// nodes run in this process as goroutines; package exec/cluster runs
// the same RunNode bodies in separate worker processes.
func Run(prog *Program, cfg Config) (*Result, error) {
	applyDefaults(&cfg)
	if cfg.Transport == nil {
		cfg.Transport = InprocTransport()
	}
	if err := validate(prog, cfg); err != nil {
		return nil, err
	}
	n := cfg.Nodes

	tr, err := cfg.Transport(n)
	if err != nil {
		return nil, fmt.Errorf("exec: transport: %w", err)
	}

	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunNode(prog, cfg, id, tr)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exec: node %d: %w", j, err)
		}
	}
	if rep, ok := tr.(errReporter); ok {
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	if c, ok := tr.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return nil, fmt.Errorf("exec: transport close: %w", err)
		}
	}
	return AssembleResult(prog, cfg, results)
}

// RunSequentialReference executes the same plan with the sequential
// parallel-semantics executor (rewrite.RunLaunch) for steps iterations:
// the bit-exact reference the distributed run must reproduce. It runs
// the same shard interpreter (rewrite.RunShard) as the distributed run,
// so it is not an independent oracle: a fault in that interpreter shows
// in both alike. ir.Machine.RunSequential, the true-sequential
// interpreter the internal/gen exec oracle uses, is the independent one.
func RunSequentialReference(prog *Program, steps int) (*ir.Machine, error) {
	if steps <= 0 {
		steps = 1
	}
	m := prog.Machine.Clone()
	for s := 0; s < steps; s++ {
		for _, t := range prog.Plan.Tasks {
			if err := rewrite.RunLaunch(m, prog.Parts, t.Loop); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}
