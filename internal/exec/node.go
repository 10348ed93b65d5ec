package exec

import (
	"fmt"
	"sort"
	"time"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/sim"
)

// node is one SPMD executor node. It holds one window of each region —
// a copy of exactly the elements its schedule moves and its shards
// reach, the union of those sets stored densely, valid only on owned
// elements and fresh ghosts — and its rows of the per-launch
// statistics. Nodes communicate exclusively through the transport; no
// mutable state is shared.
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

// newNode returns node id of a run of prog under cfg, on transport tr.
func newNode(prog *Program, cfg Config, id int, tr Transport) *node {
	return &node{
		id:    id,
		cfg:   cfg,
		prog:  prog,
		tr:    tr,
		mb:    tr.Mailbox(id),
		stats: make([][]sim.NodeStats, cfg.Steps),
		times: make([][]NodeTiming, cfg.Steps),
	}
}

// pendingFinish is a launch whose shard has run and whose sends are out,
// but whose write-back receives and folds have not been applied yet.
type pendingFinish struct {
	sched *launchSched
	res   *rewrite.ShardResult
}

// run sets the node up, executes every launch of its schedule, then
// settles every deferred finish so the gather reads fully merged data.
// It returns the final owners the gather packs.
func (n *node) run() ([]finalOwner, error) {
	scheds, final, err := n.setup()
	if err != nil {
		return nil, err
	}
	for _, sc := range scheds {
		n.stats[sc.step] = append(n.stats[sc.step], sc.stats)
		if err := n.runLaunch(sc); err != nil {
			return nil, fmt.Errorf("step %d, launch %s: %w", sc.step, sc.task.Launch.Name, err)
		}
	}
	return final, n.settle(len(n.pending))
}

// setup derives the node's schedule and copies its window of each region
// out of the program's initial data (the shared prog.Machine, which it
// only reads). It returns the launches in order and the final owners.
func (n *node) setup() ([]*launchSched, []finalOwner, error) {
	scheds, final, win, err := schedule(n.prog, n.cfg, n.id)
	if err != nil {
		return nil, nil, err
	}
	whole := n.prog.Machine
	n.m = &ir.Machine{Regions: make(map[string]*region.Region, len(whole.Regions)), Funcs: whole.Funcs, Partitions: whole.Partitions}
	for name, r := range whole.Regions {
		n.m.Regions[name] = r.CopyWindow(win[name])
	}
	for step := range n.times {
		n.times[step] = make([]NodeTiming, len(n.prog.Plan.Tasks))
	}
	return scheds, final, nil
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
// through a rewrite.Fold, settles run in launch order, and
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
	// silently vanish; the coherence protocol treats that as unsound and
	// names the lowest such element.
	for _, fs := range sc.folds {
		if buf := res.Reductions[fs.fk]; buf != nil {
			if idx, ok := escaping(buf, sc.reach[fs.fk]); ok {
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
			msg.scalars, msg.present = packBuffer(res.Reductions[tr.tag.fk()], tr.set)
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

// escaping returns the lowest element buf holds a contribution for
// outside reach, walking the buffer's runs and reach's intervals
// together.
func escaping(buf *rewrite.ReduceBuffer, reach geometry.IndexSet) (idx int64, found bool) {
	ivs, i := reach.Intervals(), 0
	buf.EachRun(func(lo, hi int64, _ []float64) bool {
		for lo < hi {
			for i < len(ivs) && ivs[i].Hi <= lo {
				i++
			}
			if i == len(ivs) || ivs[i].Lo > lo {
				idx, found = lo, true
				return false
			}
			lo = ivs[i].Hi
		}
		return true
	})
	return idx, found
}

// finish applies one deferred launch completion: take every write-back
// dependency and install guarded ships, then fold each reduced field in
// canonical order. A field's fold adds, in ascending sender order, each
// merge message's present slots and, at this node's own place in that
// order, its own shard buffer restricted to the elements it owns: the
// fold of rewrite.MergeShardReductions restricted to owner.Sub(j), so
// the distributed merge reproduces the sequential one piecewise. A
// sender covering one element under two requirements packed it twice
// from its one shard buffer; the fold keeps the first copy, so each
// (sender, element) contribution folds exactly once.
func (n *node) finish(pf *pendingFinish) error {
	sc := pf.sched
	var merges []message
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
		merges = append(merges, msg)
	}
	sort.SliceStable(merges, func(a, b int) bool { return merges[a].from < merges[b].from })
	var in []*message
	for _, fs := range sc.folds {
		in = in[:0]
		for i := range merges {
			if merges[i].region == fs.fk.Region && merges[i].field == fs.fk.Field {
				in = append(in, &merges[i])
			}
		}
		own := pf.res.Reductions[fs.fk]
		if own == nil && len(in) == 0 {
			continue
		}
		fold := rewrite.NewFold(fs.op, fs.own)
		for _, msg := range in {
			if own != nil && msg.from > n.id {
				fold.AddBuffer(n.id, own)
				own = nil
			}
			foldMessage(fold, msg)
		}
		if own != nil {
			fold.AddBuffer(n.id, own)
		}
		fold.Apply(n.m.Regions[fs.fk.Region], fs.fk.Field)
	}
	return nil
}

// foldMessage adds a merge message's present slots to fold.
func foldMessage(fold *rewrite.Fold, msg *message) {
	pos := 0
	msg.set.EachInterval(func(iv geometry.Interval) bool {
		for k := iv.Lo; k < iv.Hi; k++ {
			if msg.present[pos] {
				fold.Add(msg.from, k, msg.scalars[pos])
			}
			pos++
		}
		return true
	})
}
