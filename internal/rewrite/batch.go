package rewrite

import (
	"errors"
	"math"
	"sync"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
)

// lanes is the width of a batch: the most iterations one compiled
// statement runs over per call, one lane each. A lane number is a uint8,
// so indexing a [lanes]T column with one needs no bounds check.
const lanes = 256

// everyLane selects lanes 0…255; a batch of n iterations starts with
// everyLane[:n] active.
var everyLane = func() (sel [lanes]uint8) {
	for l := range sel {
		sel[l] = uint8(l)
	}
	return sel
}()

// errBatch is every failure of the batched path. No error text is built
// there: a shard that fails runs again element-at-a-time, which names the
// first failing iteration and statement.
var errBatch = errors.New("rewrite: batched shard failed")

// batchSafe reports whether pl's body may run statement-at-a-time over a
// batch of iterations, with the results of running it element-at-a-time
// bit for bit. It decides from the body's structure alone:
//
//   - there is no Inner loop, and no statement binds the loop variable,
//     so a lane's loop variable always holds its iteration;
//   - a field written by a plain store or a centered reduction is loaded
//     and stored only at the loop variable, so no iteration touches
//     another iteration's element of it;
//   - a field that takes a §5.1 guarded or a buffered reduction is
//     neither loaded nor stored any other way, so nothing in the body
//     observes it, and its contributions can wait for the batch's end to
//     be folded in (iteration, statement) order.
func batchSafe(pl *ParallelLoop) bool {
	type use struct{ plain, deferred, loaded, offLoop bool }
	uses := map[FieldKey]*use{}
	at := func(regionName, field string) *use {
		k := FieldKey{regionName, field}
		u := uses[k]
		if u == nil {
			u = &use{}
			uses[k] = u
		}
		return u
	}
	v, safe := pl.Loop.Var, true
	var walk func([]ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, src := range stmts {
			switch st := src.(type) {
			case *ir.Load:
				u := at(st.Region, st.Field)
				u.loaded, u.offLoop = true, u.offLoop || st.Idx != v
				safe = safe && st.Var != v
			case *ir.Store:
				u, a := at(st.Region, st.Field), pl.Access[st]
				switch {
				case a == nil:
					safe = false
				case a.Guarded || a.Buffered:
					u.deferred = true
				default:
					u.plain, u.offLoop = true, u.offLoop || st.Idx != v
				}
			case *ir.LetScalar:
				safe = safe && st.Var != v
			case *ir.Apply:
				safe = safe && st.Var != v
			case *ir.Alias:
				safe = safe && st.Var != v
			case *ir.IfIn:
				walk(st.Then)
				walk(st.Else)
			case *ir.IfCmp:
				walk(st.Then)
				walk(st.Else)
			default:
				safe = false
			}
		}
	}
	walk(pl.Loop.Stmts)
	for _, u := range uses {
		if u.plain && u.offLoop || u.deferred && (u.plain || u.loaded) {
			return false
		}
	}
	return safe
}

// arena is a batched shard's scratch memory: the lane frame, a state, a
// scalar and an index column per slot, and the temporary columns of
// expression values, opaque-call accumulators, branch selections and
// deferred reductions.
type arena struct {
	state [][lanes]uint8
	f     [][lanes]float64
	i     [][lanes]int64
	tf    [][lanes]float64
	ti    [][lanes]int64
	tb    [][lanes]uint8
}

// arenas is the free list of arenas, shared by every node goroutine that
// runs shards. It keeps arenas that a sync.Pool would drop at random
// under the race detector, which would make the allocation pins flaky
// there.
var arenas struct {
	sync.Mutex
	free []*arena
}

// maxFreeArenas bounds the free list; an arena released to a full list
// is dropped.
const maxFreeArenas = 8

func takeArena() *arena {
	arenas.Lock()
	defer arenas.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return &arena{}
	}
	a := arenas.free[n-1]
	arenas.free = arenas.free[:n-1]
	return a
}

func (a *arena) release() {
	arenas.Lock()
	if len(arenas.free) < maxFreeArenas {
		arenas.free = append(arenas.free, a)
	}
	arenas.Unlock()
}

// size gives the arena slots frame slots and nf, ni and nb temporary
// columns, reusing what it holds when that is enough.
func (a *arena) size(slots, nf, ni, nb int) {
	a.state, a.f, a.i = columns(a.state, slots), columns(a.f, slots), columns(a.i, slots)
	a.tf, a.ti, a.tb = columns(a.tf, nf), columns(a.ti, ni), columns(a.tb, nb)
}

func columns[T any](cols []T, n int) []T {
	if cap(cols) < n {
		return make([]T, n)
	}
	return cols[:n]
}

// batch is one batched RunShard call: the shard it compiles against, the
// arena its columns live in, and what the compile counted: temporary
// columns of each type, constant columns and deferred reductions.
type batch struct {
	*shard
	a          *arena
	loopVar    int
	nf, ni, nb int
	consts     []constant
	defers     []deferred
}

// constant is a temporary column holding v in every lane.
type constant struct {
	col int
	v   float64
}

// deferred is a guarded or buffered reduction: per lane, the columns of
// its target index, its value and a mark that the lane contributes.
type deferred struct {
	f              *field
	op             lang.ReduceOp
	code           byte
	ident          float64
	buffered       bool
	idx, val, mark int
}

// bstep is one statement compiled for batches, bexpr one scalar
// expression: each runs over the selected lanes and reports false on any
// failure. A bexpr returns a column holding its value in those lanes.
type (
	bstep func(sel []uint8) bool
	bexpr func(sel []uint8) (*[lanes]float64, bool)
)

func runLanes(body []bstep, sel []uint8) bool {
	if len(sel) == 0 {
		return true
	}
	for _, st := range body {
		if !st(sel) {
			return false
		}
	}
	return true
}

// runBatched is RunShard statement-at-a-time over batches of iterations.
// Any failure, at compile or run time, returns errBatch.
func runBatched(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) (*ShardResult, error) {
	iter, ok := parts[pl.IterSym]
	if !ok {
		return nil, errBatch
	}
	b := &batch{shard: newShard(m, parts, pl, color), a: takeArena()}
	defer b.a.release()
	b.loopVar = b.slot(pl.Loop.Var)
	body, err := b.compile(pl.Loop.Stmts)
	if err != nil {
		return nil, errBatch
	}
	sub := iter.Sub(color)
	b.hoist(b.loopVar, sub)
	a := b.a
	a.size(len(b.names), b.nf, b.ni, b.nb)
	for _, c := range b.consts {
		col := &a.tf[c.col]
		for l := range col {
			col[l] = c.v
		}
	}
	ks, n := &a.i[b.loopVar], 0
	for _, iv := range sub.Intervals() {
		for k := iv.Lo; k < iv.Hi; k++ {
			ks[n] = k
			if n++; n == lanes {
				if !b.run(body, n) {
					return nil, errBatch
				}
				n = 0
			}
		}
	}
	if n > 0 && !b.run(body, n) {
		return nil, errBatch
	}
	return b.res, nil
}

// run runs body over a batch of n iterations, whose indexes fill the loop
// variable's first n lanes, then commits the batch's deferred reductions.
func (b *batch) run(body []bstep, n int) bool {
	a := b.a
	clear(a.state)
	loop := &a.state[b.loopVar]
	for l := range n {
		loop[l] = indexSlot
	}
	for _, d := range b.defers {
		clear(a.tb[d.mark][:n])
	}
	if !runLanes(body, everyLane[:n]) {
		return false
	}
	b.commit(n)
	return true
}

// commit folds the batch's deferred reductions lane by lane, and within a
// lane in statement order: the order the element-at-a-time path folds
// them in.
func (b *batch) commit(n int) {
	a := b.a
	for l := range n {
		for i := range b.defers {
			d := &b.defers[i]
			if a.tb[d.mark][l] == 0 {
				continue
			}
			k, v := a.ti[d.idx][l], a.tf[d.val][l]
			if d.buffered {
				b.contribute(d.f, d.op, d.code, d.ident, k, v)
			} else {
				b.update(d.f, d.code, k, v)
			}
		}
	}
}

// The allocators of temporary columns.
func (b *batch) newF() int { b.nf++; return b.nf - 1 }
func (b *batch) newI() int { b.ni++; return b.ni - 1 }
func (b *batch) newB() int { b.nb++; return b.nb - 1 }

// indexes reports whether slot holds an index in every selected lane
// and, unless a is nil or its check is hoisted, whether each lies in a's
// subregion.
func (b *batch) indexes(slot int, a *access, sel []uint8) bool {
	if slot != b.loopVar {
		state := &b.a.state[slot]
		for _, l := range sel {
			if state[l] != indexSlot {
				return false
			}
		}
	}
	if a == nil || a.hoisted {
		return true
	}
	ks := &b.a.i[slot]
	for _, l := range sel {
		if !a.contains(ks[l]) {
			return false
		}
	}
	return true
}

func (b *batch) compile(stmts []ir.Stmt) ([]bstep, error) {
	out := make([]bstep, len(stmts))
	for i, st := range stmts {
		var err error
		if out[i], err = b.compileStmt(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *batch) compileStmt(src ir.Stmt) (bstep, error) {
	switch st := src.(type) {
	case *ir.Load:
		return b.load(st)
	case *ir.Store:
		return b.store(st)
	case *ir.LetScalar:
		dst, x := b.dest(st.Var), b.expr(st.Rhs)
		return func(sel []uint8) bool {
			v, ok := x(sel)
			if !ok {
				return false
			}
			state, out := &b.a.state[dst], &b.a.f[dst]
			for _, l := range sel {
				state[l], out[l] = scalarSlot, v[l]
			}
			return true
		}, nil
	case *ir.Apply:
		arg, dst, fn := b.slot(st.Arg), b.dest(st.Var), b.m.Funcs[st.Func]
		if fn == nil {
			return func([]uint8) bool { return false }, nil
		}
		return b.apply(arg, dst, fn), nil
	case *ir.Alias:
		src, dst := b.slot(st.Src), b.dest(st.Var)
		return func(sel []uint8) bool {
			a := b.a
			for _, l := range sel {
				if a.state[src][l] == unbound {
					return false
				}
				a.state[dst][l], a.f[dst][l], a.i[dst][l] = a.state[src][l], a.f[src][l], a.i[src][l]
			}
			return true
		}, nil
	case *ir.IfIn:
		return b.ifIn(st)
	case *ir.IfCmp:
		return b.ifCmp(st)
	}
	return nil, errBatch
}

// apply compiles an Apply of fn from slot arg into slot dst: each
// selected lane's index mapped, with state indexSlot, or state
// invalidSlot where fn has no value. Affine and table maps, the kinds
// the builtins, the generator and the examples install, get lane loops
// over the map's fields held in locals, so no lane makes an interface
// call or copies the map; any other map fails the batch, as a missing
// one does, and the shard runs element-at-a-time.
func (b *batch) apply(arg, dst int, fn geometry.IndexMap) bstep {
	switch m := fn.(type) {
	case geometry.AffineMap:
		stride, off, mod := m.Stride, m.Offset, m.Modulo
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if m.Clamp != nil {
			lo, hi = m.Clamp.Lo, m.Clamp.Hi
		}
		if mod <= 0 {
			return func(sel []uint8) bool {
				if !b.indexes(arg, nil, sel) {
					return false
				}
				ks, state, out := &b.a.i[arg], &b.a.state[dst], &b.a.i[dst]
				for _, l := range sel {
					if v := stride*ks[l] + off; v >= lo && v < hi {
						state[l], out[l] = indexSlot, v
					} else {
						state[l] = invalidSlot
					}
				}
				return true
			}
		}
		return func(sel []uint8) bool {
			if !b.indexes(arg, nil, sel) {
				return false
			}
			ks, state, out := &b.a.i[arg], &b.a.state[dst], &b.a.i[dst]
			for _, l := range sel {
				v := (stride*ks[l] + off) % mod
				if v < 0 {
					v += mod
				}
				if v >= lo && v < hi {
					state[l], out[l] = indexSlot, v
				} else {
					state[l] = invalidSlot
				}
			}
			return true
		}
	case geometry.TableMap:
		table := m.Table
		return func(sel []uint8) bool {
			if !b.indexes(arg, nil, sel) {
				return false
			}
			ks, state, out := &b.a.i[arg], &b.a.state[dst], &b.a.i[dst]
			for _, l := range sel {
				if k := ks[l]; uint64(k) < uint64(len(table)) && table[k] >= 0 {
					state[l], out[l] = indexSlot, table[k]
				} else {
					state[l] = invalidSlot
				}
			}
			return true
		}
	}
	return func([]uint8) bool { return false }
}

func (b *batch) load(st *ir.Load) (bstep, error) {
	idx, dst := b.slot(st.Idx), b.dest(st.Var)
	f, acc, err := b.resolveLoad(st, idx)
	if err != nil {
		return nil, err
	}
	if f.kind == region.ScalarField {
		return func(sel []uint8) bool {
			if !b.indexes(idx, acc, sel) {
				return false
			}
			ks, state, out := &b.a.i[idx], &b.a.state[dst], &b.a.f[dst]
			for _, l := range sel {
				if f.wScalar == nil {
					out[l] = f.scalars[f.data.Pos(ks[l])]
				} else {
					out[l] = f.scalar(ks[l])
				}
				state[l] = scalarSlot
			}
			return true
		}, nil
	}
	return func(sel []uint8) bool {
		if !b.indexes(idx, acc, sel) {
			return false
		}
		ks, state, out := &b.a.i[idx], &b.a.state[dst], &b.a.i[dst]
		for _, l := range sel {
			var v int64
			if f.wIndex == nil {
				v = f.indexes[f.data.Pos(ks[l])]
			} else {
				v = f.index(ks[l])
			}
			if v < 0 {
				state[l] = invalidSlot
			} else {
				state[l], out[l] = indexSlot, v
			}
		}
		return true
	}, nil
}

func (b *batch) store(st *ir.Store) (bstep, error) {
	idx, x := b.slot(st.Idx), b.expr(st.Rhs)
	f, acc, op, err := b.resolveStore(st, idx)
	if err != nil {
		return nil, err
	}
	switch {
	case acc.Guarded || acc.Buffered:
		// Recorded per lane and committed at the batch's end. A guarded
		// contribution is marked only when this task owns its target.
		d := deferred{f: f, op: st.Op, code: op, ident: ir.ReduceIdentity(string(st.Op)), buffered: acc.Buffered,
			idx: b.newI(), val: b.newF(), mark: b.newB()}
		b.defers = append(b.defers, d)
		checked := acc
		if acc.Guarded {
			checked = nil
		}
		return func(sel []uint8) bool {
			if !b.indexes(idx, checked, sel) {
				return false
			}
			v, ok := x(sel)
			if !ok {
				return false
			}
			a := b.a
			ks, is, vs, marks := &a.i[idx], &a.ti[d.idx], &a.tf[d.val], &a.tb[d.mark]
			for _, l := range sel {
				k := ks[l]
				if checked != nil || acc.hoisted || acc.contains(k) {
					is[l], vs[l], marks[l] = k, v[l], 1
				}
			}
			return true
		}, nil
	case f.kind == region.IndexField:
		return func(sel []uint8) bool {
			v, ok := b.storeOperands(idx, acc, x, sel)
			if !ok {
				return false
			}
			w, ks := b.indexRun(f), &b.a.i[idx]
			for _, l := range sel {
				w.put(ks[l], int64(v[l]))
			}
			return true
		}, nil
	case op == opSet:
		return func(sel []uint8) bool {
			v, ok := b.storeOperands(idx, acc, x, sel)
			if !ok {
				return false
			}
			w, ks := b.scalarRun(f), &b.a.i[idx]
			for _, l := range sel {
				w.put(ks[l], v[l])
			}
			return true
		}, nil
	}
	// A centered reduction: task-private read-modify-write.
	return func(sel []uint8) bool {
		v, ok := b.storeOperands(idx, acc, x, sel)
		if !ok {
			return false
		}
		ks := &b.a.i[idx]
		for _, l := range sel {
			b.update(f, op, ks[l], v[l])
		}
		return true
	}, nil
}

// storeOperands checks a plain store's or centered reduction's indexes
// and evaluates its value.
func (b *batch) storeOperands(idx int, a *access, x bexpr, sel []uint8) (*[lanes]float64, bool) {
	if !b.indexes(idx, a, sel) {
		return nil, false
	}
	return x(sel)
}

// branches compiles the two branches of an if statement and allocates
// their selections.
func (b *batch) branches(then, els []ir.Stmt) (t, e []bstep, tsel, esel int, err error) {
	if t, err = b.compile(then); err != nil {
		return
	}
	if e, err = b.compile(els); err != nil {
		return
	}
	return t, e, b.newB(), b.newB(), nil
}

func (b *batch) ifIn(st *ir.IfIn) (bstep, error) {
	idx := b.slot(st.Idx)
	size, in := b.space(st)
	then, els, tsel, esel, err := b.branches(st.Then, st.Else)
	if err != nil {
		return nil, err
	}
	return func(sel []uint8) bool {
		a := b.a
		state, ks := &a.state[idx], &a.i[idx]
		t, e := a.tb[tsel][:0], a.tb[esel][:0]
		for _, l := range sel {
			var k int64 // a scalar tests 0
			switch state[l] {
			case unbound:
				return false
			case invalidSlot:
				e = append(e, l)
				continue
			case indexSlot:
				k = ks[l]
			}
			var hit bool
			switch {
			case size >= 0:
				hit = k >= 0 && k < size
			case in == nil:
				return false
			default:
				hit = in(k)
			}
			if hit {
				t = append(t, l)
			} else {
				e = append(e, l)
			}
		}
		return runLanes(then, t) && runLanes(els, e)
	}, nil
}

func (b *batch) ifCmp(st *ir.IfCmp) (bstep, error) {
	x, y := b.expr(st.L), b.expr(st.R)
	then, els, tsel, esel, err := b.branches(st.Then, st.Else)
	if err != nil {
		return nil, err
	}
	if st.Op != "==" && st.Op != "!=" {
		return func([]uint8) bool { return false }, nil
	}
	eq := st.Op == "=="
	return func(sel []uint8) bool {
		l, r, ok := bothLanes(x, y, sel)
		if !ok {
			return false
		}
		t, e := b.a.tb[tsel][:0], b.a.tb[esel][:0]
		for _, ln := range sel {
			if (l[ln] == r[ln]) == eq {
				t = append(t, ln)
			} else {
				e = append(e, ln)
			}
		}
		return runLanes(then, t) && runLanes(els, e)
	}, nil
}

// bothLanes evaluates x, then y.
func bothLanes(x, y bexpr, sel []uint8) (l, r *[lanes]float64, ok bool) {
	if l, ok = x(sel); ok {
		r, ok = y(sel)
	}
	return l, r, ok
}

func (b *batch) expr(e ir.ScalarExpr) bexpr {
	fail := func([]uint8) (*[lanes]float64, bool) { return nil, false }
	switch x := e.(type) {
	case ir.Const:
		col := b.newF()
		b.consts = append(b.consts, constant{col, x.V})
		return func([]uint8) (*[lanes]float64, bool) { return &b.a.tf[col], true }
	case ir.VarExpr:
		slot, tmp := b.slot(x.Name), b.newF()
		return func(sel []uint8) (*[lanes]float64, bool) {
			state := &b.a.state[slot]
			for _, l := range sel {
				if state[l] != scalarSlot {
					return b.coerce(slot, tmp, sel)
				}
			}
			return &b.a.f[slot], true
		}
	case ir.CallExpr:
		seed, args, acc, out := ir.OpaqueSeed(x.Func), make([]bexpr, len(x.Args)), b.newI(), b.newF()
		for i, a := range x.Args {
			args[i] = b.expr(a)
		}
		return func(sel []uint8) (*[lanes]float64, bool) {
			ac := &b.a.ti[acc]
			for _, l := range sel {
				ac[l] = seed
			}
			for i, arg := range args {
				v, ok := arg(sel)
				if !ok {
					return nil, false
				}
				for _, l := range sel {
					ac[l] = ir.OpaqueMix(ac[l], i, v[l])
				}
			}
			o := &b.a.tf[out]
			for _, l := range sel {
				o[l] = ir.OpaqueValue(ac[l])
			}
			return o, true
		}
	case ir.BinExpr:
		l, r, out := b.expr(x.L), b.expr(x.R), b.newF()
		var fn func(sel []uint8, lv, rv, o *[lanes]float64)
		switch x.Op {
		case "+":
			fn = func(sel []uint8, lv, rv, o *[lanes]float64) {
				for _, i := range sel {
					o[i] = lv[i] + rv[i]
				}
			}
		case "-":
			fn = func(sel []uint8, lv, rv, o *[lanes]float64) {
				for _, i := range sel {
					o[i] = lv[i] - rv[i]
				}
			}
		case "*":
			fn = func(sel []uint8, lv, rv, o *[lanes]float64) {
				for _, i := range sel {
					o[i] = lv[i] * rv[i]
				}
			}
		case "/":
			fn = func(sel []uint8, lv, rv, o *[lanes]float64) {
				for _, i := range sel {
					if rv[i] == 0 {
						o[i] = 0
					} else {
						o[i] = lv[i] / rv[i]
					}
				}
			}
		default:
			return fail
		}
		return func(sel []uint8) (*[lanes]float64, bool) {
			lv, rv, ok := bothLanes(l, r, sel)
			if !ok {
				return nil, false
			}
			o := &b.a.tf[out]
			fn(sel, lv, rv, o)
			return o, true
		}
	}
	return fail
}

// coerce reads a slot that holds no scalar in some lane into column tmp:
// an index reads as its number, an invalid index as 0.
func (b *batch) coerce(slot, tmp int, sel []uint8) (*[lanes]float64, bool) {
	a := b.a
	state, fs, is, out := &a.state[slot], &a.f[slot], &a.i[slot], &a.tf[tmp]
	for _, l := range sel {
		switch state[l] {
		case scalarSlot:
			out[l] = fs[l]
		case indexSlot:
			out[l] = float64(is[l])
		case invalidSlot:
			out[l] = 0
		default:
			return nil, false
		}
	}
	return out, true
}
