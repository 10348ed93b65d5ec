package exec

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"autopart/internal/geometry"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// This file is the dependency machinery that replaces bulk-synchronous
// launch phases: before its first send, each node derives from the
// program's metadata alone (partitions, and the owner map as
// evolveOwners replays it) the exact messages it will send and receive
// at every (step, launch) and the window of each region it must hold,
// and a mailbox matches deliveries to those expectations by tag in
// whatever order the transport produces them.
// Because matching is content-addressed — never positional — any
// delivery schedule yields the same data, which the flaky transport's
// chaos testing relies on.

// tagKey identifies one protocol message: every field a sender stamps,
// plus the sender itself. Unique per message — within one launch a
// (req, field) pair produces at most one piece per peer.
type tagKey struct {
	kind          msgKind
	step, launch  int
	req           int
	region, field string
	from          int
}

func keyOf(m *message) tagKey {
	return tagKey{
		kind: m.kind, step: m.step, launch: m.launch, req: m.req,
		region: m.region, field: m.field, from: m.from,
	}
}

func (k tagKey) String() string {
	return fmt.Sprintf("%s step=%d launch=%d req=%d %s.%s from peer %d",
		k.kind, k.step, k.launch, k.req, k.region, k.field, k.from)
}

func (k tagKey) fk() rewrite.FieldKey {
	return rewrite.FieldKey{Region: k.region, Field: k.field}
}

// arrival is one delivered message plus its receive timestamp (the
// overlap accounting reads the timestamps).
type arrival struct {
	msg message
	at  time.Time
}

// mailbox is a node's tag-addressed receive buffer. The transport puts
// deliveries in; the node goroutine takes them out by tag, blocking
// until the matching message lands. Messages for future launches buffer
// here until their schedule claims them.
type mailbox struct {
	mu      sync.Mutex
	arrived map[tagKey]arrival
	wake    chan struct{} // closed and replaced on a put while a take waits
	waiters int           // takes blocked on wake
	err     error         // first protocol violation (e.g. duplicate tag)
	ends    *ends         // the senders' end-of-stream marks
}

func newMailbox(e *ends) *mailbox {
	return &mailbox{arrived: map[tagKey]arrival{}, wake: make(chan struct{}), ends: e}
}

// ends marks the end of each stream into a set of mailboxes. No end
// mark needs to queue behind the data: a sender puts every message
// before its end is marked, in the same goroutine, and put holds the
// mailbox lock, so a take that sees the mark under that lock has
// already seen everything the sender delivered.
type ends struct {
	mu      sync.Mutex
	gone    []chan struct{} // by sender id: closed at that sender's end
	lost    chan struct{}   // closed at an end no sender can be named for
	drained chan struct{}   // closed once every stream has ended
	left    int             // streams not yet ended
}

func newEnds(nodes, streams int) *ends {
	e := &ends{gone: make([]chan struct{}, nodes), lost: make(chan struct{}), drained: make(chan struct{}), left: streams}
	for i := range e.gone {
		e.gone[i] = make(chan struct{})
	}
	if streams == 0 {
		close(e.drained)
	}
	return e
}

// end marks one stream's end. A sender's end counts once, however often
// it is reported; from < 0 (a stream that failed before naming its
// sender) could be any peer's, so it fails every waiting take.
func (e *ends) end(from int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case from < 0:
		if !closed(e.lost) {
			close(e.lost)
		}
	case closed(e.gone[from]):
		return
	default:
		close(e.gone[from])
	}
	if e.left--; e.left == 0 {
		close(e.drained)
	}
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// put records a delivery. A duplicate tag means a peer violated the
// protocol; it is latched as an error rather than silently overwritten.
func (mb *mailbox) put(m message) {
	at := time.Now()
	k := keyOf(&m)
	mb.mu.Lock()
	if _, dup := mb.arrived[k]; dup {
		if mb.err == nil {
			mb.err = fmt.Errorf("duplicate message %s", k)
		}
	} else {
		mb.arrived[k] = arrival{msg: m, at: at}
	}
	if mb.waiters > 0 {
		close(mb.wake)
		mb.wake = make(chan struct{})
	}
	mb.mu.Unlock()
}

// take removes and returns the message with tag k, blocking until it
// arrives. It fails fast if the sender (or the transport) ended first.
func (mb *mailbox) take(k tagKey) (message, error) {
	gone, lost := mb.ends.gone[k.from], mb.ends.lost
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if a, ok := mb.arrived[k]; ok {
			delete(mb.arrived, k)
			return a.msg, nil
		}
		if mb.err != nil {
			return message{}, mb.err
		}
		if closed(gone) || closed(lost) {
			return message{}, fmt.Errorf("peer %d exited before sending %s", k.from, k)
		}
		wake := mb.wake
		mb.waiters++
		mb.mu.Unlock()
		select {
		case <-wake:
		case <-gone:
		case <-lost:
		}
		mb.mu.Lock()
		mb.waiters--
	}
}

// arrivedAt reports whether the keyed message has landed (it may not
// have been taken yet) and when. Non-blocking; used by the overlap
// accounting only.
func (mb *mailbox) arrivedAt(k tagKey) (time.Time, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	a, ok := mb.arrived[k]
	return a.at, ok
}

// leftoverErr reports messages that were delivered but never claimed by
// any schedule — each one is a protocol violation.
func (mb *mailbox) leftoverErr() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.err != nil {
		return mb.err
	}
	for k := range mb.arrived {
		return fmt.Errorf("unclaimed message %s (%d total)", k, len(mb.arrived))
	}
	return nil
}

// transfer is one protocol message as a schedule names it: its tag
// (tag.from is the sender), its receiver, and the element set it
// carries.
type transfer struct {
	tag tagKey
	to  int
	set geometry.IndexSet
}

// foldSpec is one reduced field's owner-side fold: the §5.2 merge of
// per-color contributions into the elements this node owns, applied in
// first-requirement-encounter order exactly as the bulk-synchronous
// executor did.
type foldSpec struct {
	fk  rewrite.FieldKey
	op  string
	own geometry.IndexSet // the post-launch owner's subregion: the seed restriction
}

// launchSched is one node's whole protocol for one (step, launch): what
// it sends before its shard runs (ghostsOut) and after (backsOut), what
// must land before the shard can run (ghostsIn) and before the launch
// can finish (backsIn), the folds the finish performs, and the traffic
// all of it amounts to. Transfers are in canonical (requirement, field,
// peer) order. Every node derives its own rows from the same metadata,
// which is what makes tag-matching sound.
type launchSched struct {
	step, li  int
	task      runtime.Task
	ghostsOut []transfer
	ghostsIn  []transfer
	// backsOut and backsIn are the write-backs: guarded ships and
	// buffer merges.
	backsOut []transfer
	backsIn  []transfer
	// folds lists the reduced fields in fold order.
	folds []foldSpec
	// touches are the fields the deferred finish will write (ship
	// installs and folds): a later launch touching any of them must
	// settle this one first.
	touches map[rewrite.FieldKey]bool
	// reach is, per field this node's shard buffers reductions for, the
	// elements a contribution can land on: owned here, or merged into an
	// owner. A contribution elsewhere would silently vanish.
	reach map[rewrite.FieldKey]geometry.IndexSet
	stats sim.NodeStats
}

// finalOwner pairs a field with its owner partition after the run.
type finalOwner struct {
	key   sim.FieldKey
	owner *region.Partition
}

// evolveOwners replays the run's ownership evolution, and is the only
// code that applies its rule: a write moves the field's ownership to
// the writing partition's OwnerView. For every (step, launch) in run
// order it calls visit, when non-nil, with the owners at launch entry
// and moved, the post-launch owner of each field the launch writes (the
// last write requirement wins); visit must not retain either map. It
// returns the final owners in sorted field-key order — the gather order
// in which RunNode packs and AssembleResult installs.
func evolveOwners(prog *Program, steps int, visit func(step, li int, t runtime.Task, entry, moved map[sim.FieldKey]*region.Partition)) []finalOwner {
	owners := make(map[sim.FieldKey]*region.Partition, len(prog.Owners.Owners))
	maps.Copy(owners, prog.Owners.Owners)
	moved := map[sim.FieldKey]*region.Partition{}
	for step := 0; step < steps; step++ {
		for li, t := range prog.Plan.Tasks {
			clear(moved)
			for _, req := range t.Launch.Reqs {
				if req.Priv != runtime.ReadWrite && req.Priv != runtime.WriteDiscard {
					continue
				}
				for _, f := range req.Fields {
					moved[sim.FieldKey{Region: req.Region, Field: f}] = prog.Parts[req.Sym].OwnerView()
				}
			}
			if visit != nil {
				visit(step, li, t, owners, moved)
			}
			maps.Copy(owners, moved)
		}
	}
	out := make([]finalOwner, 0, len(owners))
	for fk, p := range owners {
		out = append(out, finalOwner{fk, p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.Region != out[j].key.Region {
			return out[i].key.Region < out[j].key.Region
		}
		return out[i].key.Field < out[j].key.Field
	})
	return out
}

// schedule derives node j's whole protocol before its first send: one
// launchSched per (step, launch) in run order, the final owners its
// gather packs, and its window of each region. A node derives only its
// own rows: per requirement field, one split of its remote set and set
// operations only for the peers its owned set neighbours (see traffic).
// It fails before any message moves on a field without an owner, a
// ghost set no owner covers, a guarded write-back that would lose
// updates, or a set the node's window misses; some of these hold for
// one node only.
//
// A region's window is the union, within the region's index space, of
// the color-j subregion of every partition a launch names on it
// (requirement, private, touched and access-plan partitions) and of
// every owner the replay passes through. Every set the protocol moves
// and every element a shard reaches lies in one of those, so the node
// holds a copy of exactly those elements: what its tasks touch, not the
// hull of it and never the whole region.
func schedule(prog *Program, cfg Config, j int) ([]*launchSched, []finalOwner, map[string]geometry.IndexSet, error) {
	var scheds []*launchSched
	var err error
	type source struct {
		region string
		p      *region.Partition
	}
	seen := map[source]bool{}
	win := map[string]geometry.IndexSet{}
	// Most sources repeat a set already held (an owner and the
	// requirement it came from): those cost one SubsetOf and no copy.
	widen := func(name string, p *region.Partition) {
		if p == nil || prog.Machine.Regions[name] == nil || seen[source{name, p}] {
			return
		}
		seen[source{name, p}] = true
		if set := p.Sub(j); !set.SubsetOf(win[name]) {
			win[name] = win[name].Union(set)
		}
	}
	final := evolveOwners(prog, cfg.Steps, func(step, li int, t runtime.Task, entry, moved map[sim.FieldKey]*region.Partition) {
		if err != nil {
			return
		}
		for _, owners := range []map[sim.FieldKey]*region.Partition{entry, moved} {
			for fk, p := range owners {
				widen(fk.Region, p)
			}
		}
		for _, req := range t.Launch.Reqs {
			widen(req.Region, prog.Parts[req.Sym])
			widen(req.Region, prog.Parts[req.PrivateSym])
			widen(req.Region, prog.Parts[req.TouchedSym])
		}
		for _, a := range t.Loop.Access {
			widen(a.Region, prog.Parts[a.Sym])
		}
		sc, lerr := scheduleLaunch(prog.Parts, cfg, j, step, li, t, entry, moved, traffic)
		if lerr != nil {
			err = fmt.Errorf("step %d, launch %s: %w", step, t.Launch.Name, lerr)
			return
		}
		scheds = append(scheds, sc)
	})
	for name, set := range win {
		win[name] = set.Intersect(prog.Machine.Regions[name].Space())
	}
	if err == nil {
		err = checkWindows(prog.Parts, j, win, scheds, final)
	}
	return scheds, final, win, err
}

// checkWindows fails on the first set node j's schedule touches outside
// its window of the set's region: a transfer, a fold's owned part, a
// merge reach, an access plan's subregion, or a final gather piece.
func checkWindows(parts map[string]*region.Partition, j int, win map[string]geometry.IndexSet, scheds []*launchSched, final []finalOwner) error {
	check := func(name string, set geometry.IndexSet) error {
		if !set.SubsetOf(win[name]) {
			return windowErr(j, name, win[name], set)
		}
		return nil
	}
	for _, sc := range scheds {
		for _, list := range [][]transfer{sc.ghostsOut, sc.ghostsIn, sc.backsOut, sc.backsIn} {
			for _, tr := range list {
				if err := check(tr.tag.region, tr.set); err != nil {
					return err
				}
			}
		}
		for _, fs := range sc.folds {
			if err := check(fs.fk.Region, fs.own); err != nil {
				return err
			}
		}
		for fk, set := range sc.reach {
			if err := check(fk.Region, set); err != nil {
				return err
			}
		}
		for _, a := range sc.task.Loop.Access {
			if p := parts[a.Sym]; p != nil {
				if err := check(a.Region, p.Sub(j)); err != nil {
					return err
				}
			}
		}
	}
	for _, fo := range final {
		if err := check(fo.key.Region, fo.owner.Sub(j)); err != nil {
			return err
		}
	}
	return nil
}

// trafficFunc schedules one requirement field's messages into node j's
// launchSched and returns need(j); see traffic.
type trafficFunc func(sc *launchSched, cfg Config, j int, tag tagKey, pull bool, p, inst, owner *region.Partition) geometry.IndexSet

// pay charges a moved set to one side of a node's statistics.
func pay(st *sim.NodeStats, bytesPerElem float64, in bool, set geometry.IndexSet, msgs int) {
	bytes, frags := float64(set.Len())*bytesPerElem, set.NumIntervals()
	if in {
		st.BytesIn, st.FragsIn, st.MsgsIn = st.BytesIn+bytes, st.FragsIn+frags, st.MsgsIn+msgs
	} else {
		st.BytesOut, st.FragsOut, st.MsgsOut = st.BytesOut+bytes, st.FragsOut+frags, st.MsgsOut+msgs
	}
}

// traffic schedules one requirement field's messages. need(c) is the
// part of color c's set of inst that owner places elsewhere (nothing
// when c's instance subregion in p is empty); c pulls it before the
// launch (ghosts) or pushes it after (write-backs). Every message
// carries need(c) ∩ owner.Sub(o) between c and an owner o. Node j finds
// its own messages by splitting need(j) along owner's index, and its
// peers' messages to or from it by intersecting need(k) with
// owner.Sub(j) for each peer k whose instance subregion's hull meets
// owner.Sub(j)'s; both lists are in ascending peer order. The side that
// pulls or pushes pays for its whole remote set, the other side for its
// piece. It returns need(j).
func traffic(sc *launchSched, cfg Config, j int, tag tagKey, pull bool, p, inst, owner *region.Partition) geometry.IndexSet {
	mine, theirs := &sc.backsOut, &sc.backsIn
	if pull {
		mine, theirs = &sc.ghostsIn, &sc.ghostsOut
	}
	add := func(list *[]transfer, c, o int, set geometry.IndexSet) {
		tr := transfer{tag: tag, to: o, set: set}
		tr.tag.from = c
		if pull {
			tr.tag.from, tr.to = o, c
		}
		*list = append(*list, tr)
	}
	var remote geometry.IndexSet
	if !p.Sub(j).Empty() {
		remote = inst.Sub(j).Subtract(owner.Sub(j))
	}
	// need(j) misses owner.Sub(j), so no piece is node j's own.
	pieces := region.SplitByOwner(remote, owner)
	for _, pc := range pieces {
		add(mine, j, pc.Color, pc.Set)
	}
	if own := owner.Sub(j); !own.Empty() {
		hull, _ := own.Bounds()
		for k := 0; k < cfg.Nodes; k++ {
			if k == j || p.Sub(k).Empty() {
				continue
			}
			if b, ok := inst.Sub(k).Bounds(); !ok || !b.Overlaps(hull) {
				continue
			}
			if set := inst.Sub(k).Intersect(own).Subtract(owner.Sub(k)); !set.Empty() {
				add(theirs, k, j, set)
				pay(&sc.stats, cfg.BytesPerElem, !pull, set, 1)
			}
		}
	}
	if !remote.Empty() {
		pay(&sc.stats, cfg.BytesPerElem, pull, remote, len(pieces))
	}
	return remote
}

// scheduleLaunch derives node j's launchSched for one (step, launch),
// scheduling each requirement field's messages with route (traffic).
func scheduleLaunch(parts map[string]*region.Partition, cfg Config, j, step, li int, t runtime.Task, entry, moved map[sim.FieldKey]*region.Partition, route trafficFunc) (*launchSched, error) {
	sc := &launchSched{step: step, li: li, task: t,
		touches: map[rewrite.FieldKey]bool{}, reach: map[rewrite.FieldKey]geometry.IndexSet{}}
	for ri, req := range t.Launch.Reqs {
		p, inst := parts[req.Sym], parts[req.Sym]
		buffered := req.Priv == runtime.Reduce && !req.Guarded
		if buffered {
			if req.TouchedSym != "" {
				inst = parts[req.TouchedSym]
			}
			// The buffer covers the instance subregion minus the §5.2
			// private sub-partition (private elements reduce directly into
			// the local instance).
			if sub := p.Sub(j); !sub.Empty() {
				if req.PrivateSym != "" {
					sub = sub.Subtract(parts[req.PrivateSym].Sub(j))
				}
				sc.stats.BufferElems += float64(sub.Len()) * float64(len(req.Fields))
			}
		}
		for _, f := range req.Fields {
			key := sim.FieldKey{Region: req.Region, Field: f}
			owner := entry[key]
			if owner == nil {
				return nil, fmt.Errorf("no owner for %s.%s", req.Region, f)
			}
			tag := tagKey{step: step, launch: li, req: ri, region: req.Region, field: f}
			if needsFetch(req) {
				tag.kind = ghostMsg
				if remote := route(sc, cfg, j, tag, true, p, p, owner); !remote.SubsetOf(owner.UnionAll()) {
					return nil, fmt.Errorf("no valid copy of %s.%s for ghost set %s (owner covers only %s)",
						req.Region, f, remote, remote.Intersect(owner.UnionAll()))
				}
			}
			if req.Priv != runtime.Reduce {
				continue
			}
			// Write-backs land on the copies later launches and the final
			// gather read: the owner after this launch's own writes.
			// Routing them by the entry owner folds contributions into
			// replicas that stop being authoritative when the launch
			// completes — differential fuzzing caught exactly that with a
			// centered and an uncentered reduction of one field sharing a
			// launch.
			if post := moved[key]; post != nil {
				owner = post
			}
			if !buffered {
				tag.kind = shipMsg
				if remote := route(sc, cfg, j, tag, false, p, p, owner); !remote.SubsetOf(owner.UnionAll()) {
					return nil, fmt.Errorf("guarded write-back of %s.%s would lose updates on unowned set %s",
						req.Region, f, remote.Subtract(owner.UnionAll()))
				}
				continue
			}
			// A launch may reduce into one field through several instance
			// partitions (circuit's wire endpoints): messages and charges
			// stay per requirement, as sim prices them, while the shard
			// buffer, its reach and its fold are per field. touches holds
			// only fold fields until the ships join it below.
			tag.kind = mergeMsg
			remote := route(sc, cfg, j, tag, false, p, inst, owner)
			fk := rewrite.FieldKey{Region: req.Region, Field: f}
			if !sc.touches[fk] {
				sc.touches[fk] = true
				sc.folds = append(sc.folds, foldSpec{fk: fk, op: req.ReduceOp, own: owner.Sub(j)})
			}
			if !p.Sub(j).Empty() {
				sc.reach[fk] = sc.reach[fk].Union(owner.Sub(j)).Union(remote.Intersect(owner.UnionAll()))
			}
		}
	}
	for _, tr := range sc.backsIn {
		sc.touches[tr.tag.fk()] = true
	}
	return sc, nil
}

// needsFetch reports whether a requirement pulls ghost data before the
// launch: reads do, and §5.1 guarded reductions read-modify-write their
// targets in place. WriteDiscard and buffered reductions never fetch.
func needsFetch(req runtime.Requirement) bool {
	switch req.Priv {
	case runtime.ReadOnly, runtime.ReadWrite:
		return true
	case runtime.Reduce:
		return req.Guarded
	}
	return false
}

// launchFields collects every field a launch's requirements name, in
// any privilege — the conflict set against pending finishes.
func launchFields(l *runtime.Launch) map[rewrite.FieldKey]bool {
	out := map[rewrite.FieldKey]bool{}
	for _, req := range l.Reqs {
		for _, f := range req.Fields {
			out[rewrite.FieldKey{Region: req.Region, Field: f}] = true
		}
	}
	return out
}
