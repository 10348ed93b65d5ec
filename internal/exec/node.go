package exec

import (
	"fmt"
	"time"

	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/sim"
)

// node is one SPMD executor node. It holds one window of each region —
// a copy of the interval of it that covers every element its schedule
// moves and its shards reach, valid only on owned elements and fresh
// ghosts — and its rows of the per-launch statistics. Nodes communicate
// exclusively through the transport; no mutable state is shared.
//
// Execution is dependency-driven, not bulk-synchronous: the node derives
// its whole schedule before its first send, so each launch's incoming
// messages are known in advance; all outgoing messages are issued
// before any receive blocks, the shard runs the moment its last ghost
// dependency lands, and the launch's write-back receives and reduction
// folds are deferred — queued as a pendingFinish and settled only when
// a later launch (or the final gather) touches one of the fields they
// write. A launch over fields disjoint from every pending finish
// therefore computes while those receives are still in flight; that
// compute-communication overlap is what the timing columns measure.
type node struct {
	id      int
	cfg     Config
	prog    *Program
	m       *ir.Machine
	tr      Transport
	mb      *mailbox
	stats   [][]sim.NodeStats
	times   [][]NodeTiming
	pending []*pendingFinish
}

// pendingFinish is a launch whose shard has run and whose sends are out,
// but whose write-back receives and folds have not been applied yet.
type pendingFinish struct {
	sched *launchSched
	res   *rewrite.ShardResult
}

// run derives the node's schedule, copies its window of each region out
// of the program's initial data, executes every launch of the schedule,
// then settles every deferred finish so the gather reads fully merged
// data. It returns the final owners the gather packs.
func (n *node) run() ([]finalOwner, error) {
	scheds, final, win, err := schedule(n.prog, n.cfg, n.id)
	if err != nil {
		return nil, err
	}
	whole := n.prog.Machine
	n.m = &ir.Machine{Regions: make(map[string]*region.Region, len(whole.Regions)), Funcs: whole.Funcs, Partitions: whole.Partitions}
	for name, r := range whole.Regions {
		w := win[name]
		n.m.Regions[name] = r.CopyWindow(w.Lo, w.Hi)
	}
	for step := range n.times {
		n.times[step] = make([]NodeTiming, len(n.prog.Plan.Tasks))
	}
	for _, sc := range scheds {
		n.stats[sc.step] = append(n.stats[sc.step], sc.stats)
		if err := n.runLaunch(sc); err != nil {
			return nil, fmt.Errorf("step %d, launch %s: %w", sc.step, sc.task.Launch.Name, err)
		}
	}
	return final, n.settle(len(n.pending))
}

// send stamps the transfer's tag and set on msg and hands it to the
// transport.
func (n *node) send(tr transfer, msg message) {
	k := tr.tag
	msg.kind, msg.step, msg.launch, msg.req = k.kind, k.step, k.launch, k.req
	msg.region, msg.field, msg.set = k.region, k.field, tr.set
	n.tr.Send(n.id, tr.to, msg)
}

// take blocks until the transfer's message lands, then verifies it
// carries the element set the schedule expects (the mailbox matched
// every other tag field).
func (n *node) take(tr transfer) (message, error) {
	msg, err := n.mb.take(tr.tag)
	if err == nil && !msg.set.Equal(tr.set) {
		err = fmt.Errorf("exec: protocol mismatch: %s carries %s, want %s", tr.tag, msg.set, tr.set)
	}
	return msg, err
}

// settle applies the first count pending finishes, oldest first: take
// the deferred write-back messages, install guarded ships, fold merge
// buffers in canonical order. Settling in queue order keeps every
// same-field write sequence identical to the bulk-synchronous executor.
func (n *node) settle(count int) error {
	for i := 0; i < count; i++ {
		pf := n.pending[i]
		start := time.Now()
		if err := n.finish(pf); err != nil {
			return fmt.Errorf("finishing step %d, launch %s: %w",
				pf.sched.step, pf.sched.task.Launch.Name, err)
		}
		n.times[pf.sched.step][pf.sched.li].WallNS += time.Since(start).Nanoseconds()
	}
	n.pending = append([]*pendingFinish{}, n.pending[count:]...)
	return nil
}

// settleTouching settles every pending finish up to (and including) the
// last one whose writes intersect fields — later launches must observe
// those folds, and pending finishes on the same field must stay
// ordered, so the settle is a queue prefix, never a subset.
func (n *node) settleTouching(fields map[rewrite.FieldKey]bool) error {
	last := -1
	for i, pf := range n.pending {
		for fk := range pf.sched.touches {
			if fields[fk] {
				last = i
				break
			}
		}
	}
	return n.settle(last + 1)
}

// runLaunch executes one launch of the node's schedule:
//
//  1. settle pending finishes that conflict with this launch's fields;
//  2. issue every outgoing ghost piece (sends never block);
//  3. take ghost dependencies as they land and install them — the
//     shard starts the moment the last one arrives;
//  4. run the shard (rewrite.RunShard) and flush its private writes;
//  5. check every reduction contribution can reach an owner;
//  6. issue every write-back send (guarded ships, buffer merges);
//  7. defer the write-back receives and folds as a pendingFinish.
//
// Bit-identity survives the reordering because writes stay canonically
// ordered where it matters: folds run per field in requirement order
// via rewrite.MergeShardReductions, settles run in launch order, and
// everything else lands on disjoint element sets.
func (n *node) runLaunch(sc *launchSched) error {
	if err := n.settleTouching(launchFields(sc.task.Launch)); err != nil {
		return err
	}
	lt := &n.times[sc.step][sc.li]
	start := time.Now()

	for _, tr := range sc.ghostsOut {
		msg, err := packField(n.id, n.m.Regions[tr.tag.region], tr.tag.field, tr.set)
		if err != nil {
			return err
		}
		n.send(tr, msg)
	}
	for _, tr := range sc.ghostsIn {
		msg, err := n.take(tr)
		if err != nil {
			return err
		}
		if err := installField(n.id, n.m.Regions[tr.tag.region], tr.tag.field, &msg); err != nil {
			return err
		}
	}

	t0 := time.Now()
	res, err := rewrite.RunShard(n.m, n.prog.Parts, sc.task.Loop, n.id)
	if err != nil {
		return err
	}
	rewrite.FlushShard(n.m, res)
	t1 := time.Now()

	// Contributions neither local nor shipped under any requirement would
	// silently vanish; the coherence protocol treats that as unsound.
	for _, fs := range sc.folds {
		buf, reach := res.Reductions[fs.fk], sc.reach[fs.fk]
		if buf == nil {
			continue
		}
		for idx := range buf.Values {
			if !reach.Contains(idx) {
				return fmt.Errorf("reduction contribution to %s.%s[%d] has no owner to merge into",
					fs.fk.Region, fs.fk.Field, idx)
			}
		}
	}

	for _, tr := range sc.backsOut {
		var msg message
		if tr.tag.kind == shipMsg {
			if msg, err = packField(n.id, n.m.Regions[tr.tag.region], tr.tag.field, tr.set); err != nil {
				return err
			}
		} else {
			var values map[int64]float64
			if buf := res.Reductions[tr.tag.fk()]; buf != nil {
				values = buf.Values
			}
			msg.scalars, msg.present = packBuffer(values, tr.set)
		}
		n.send(tr, msg)
	}
	n.pending = append(n.pending, &pendingFinish{sched: sc, res: res})

	// Timing: the launch overlapped communication with compute for the
	// part of the shard's window during which at least one expected
	// write-back (this launch's or an earlier pending one's) had not
	// yet arrived.
	var outstanding []tagKey
	for _, pf := range n.pending {
		for _, tr := range pf.sched.backsIn {
			outstanding = append(outstanding, tr.tag)
		}
	}
	lt.ComputeNS = t1.Sub(t0).Nanoseconds()
	lt.OverlapNS = n.overlapWindow(t0, t1, outstanding).Nanoseconds()
	lt.WallNS += time.Since(start).Nanoseconds()
	return nil
}

// overlapWindow measures how much of the window [t0, t1] passed while
// at least one of deps had not yet arrived. Arrivals only accumulate,
// so the outstanding count is non-increasing over the window: the
// answer is the time to the last arrival, clamped to the window.
func (n *node) overlapWindow(t0, t1 time.Time, deps []tagKey) time.Duration {
	if len(deps) == 0 {
		return 0
	}
	last := t0
	for _, k := range deps {
		at, ok := n.mb.arrivedAt(k)
		if !ok || at.After(t1) {
			// Still outstanding (or landed after the window): the whole
			// window overlapped.
			return t1.Sub(t0)
		}
		if at.After(last) {
			last = at
		}
	}
	if last.After(t1) {
		return t1.Sub(t0)
	}
	return last.Sub(t0)
}

// finish applies one deferred launch completion: take every write-back
// dependency, install guarded ships, collect merge contributions per
// sender, then fold each reduced field in canonical order. folds
// accumulate, per reduced field, one contribution map per sender color;
// duplicate elements arriving from the same sender under different
// requirements carry identical values (both pack the sender's one shard
// buffer), so overwriting dedupes them and each (sender, element)
// contribution folds exactly once.
func (n *node) finish(pf *pendingFinish) error {
	sc := pf.sched
	perField := map[rewrite.FieldKey][]map[int64]float64{}
	for _, fs := range sc.folds {
		perField[fs.fk] = make([]map[int64]float64, n.cfg.Nodes)
	}
	for _, tr := range sc.backsIn {
		msg, err := n.take(tr)
		if err != nil {
			return err
		}
		if tr.tag.kind == shipMsg {
			if err := installField(n.id, n.m.Regions[tr.tag.region], tr.tag.field, &msg); err != nil {
				return err
			}
			continue
		}
		perColor := perField[tr.tag.fk()]
		for idx, v := range unpackBuffer(&msg) {
			if perColor[tr.tag.from] == nil {
				perColor[tr.tag.from] = map[int64]float64{}
			}
			perColor[tr.tag.from][idx] = v
		}
	}
	// Our own shard's contributions on elements we own fold locally;
	// they join the field's per-color maps once, no matter how many
	// requirements cover the field. The fold is
	// rewrite.MergeShardReductions restricted to owner.Sub(j), so the
	// distributed merge reproduces the sequential one piecewise.
	for _, fs := range sc.folds {
		perColor := perField[fs.fk]
		if buf := pf.res.Reductions[fs.fk]; buf != nil {
			for idx, v := range buf.Values {
				if fs.own.Contains(idx) {
					if perColor[n.id] == nil {
						perColor[n.id] = map[int64]float64{}
					}
					perColor[n.id][idx] = v
				}
			}
		}
		merged := make([]map[rewrite.FieldKey]*rewrite.ReduceBuffer, len(perColor))
		for k, vals := range perColor {
			if len(vals) > 0 {
				merged[k] = map[rewrite.FieldKey]*rewrite.ReduceBuffer{
					fs.fk: {Op: fs.op, Values: vals},
				}
			}
		}
		rewrite.MergeShardReductions(n.m, merged)
	}
	return nil
}
