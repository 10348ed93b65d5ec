package rewrite

import (
	"fmt"
	"sort"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
)

// FieldKey identifies a region field.
type FieldKey struct{ Region, Field string }

// ReduceBuffer accumulates one task's uncentered reduction contributions
// for one field, folded from the op's identity in iteration order.
type ReduceBuffer struct {
	Op     string
	Values map[int64]float64
}

// ShardResult is the outcome of running one color's shard of a parallel
// loop against a stable snapshot: the task's private writes (plain
// stores, centered reductions, and §5.1 guarded in-place reductions) and
// its uncentered reduction contributions. Nothing is applied to any
// machine — the caller decides how: RunLaunch flushes shards in
// ascending color order and merges buffers after the launch; the
// distributed executor ships remote-owned pieces to their owners.
type ShardResult struct {
	Scalars    map[FieldKey]map[int64]float64
	Indexes    map[FieldKey]map[int64]int64
	Reductions map[FieldKey]*ReduceBuffer
}

// RunLaunch executes one parallel loop over all colors of its iteration
// partition against m, with parts binding canonical partition symbols
// to evaluated partitions. Semantics are parallel: each task (color)
// reads the launch-entry snapshot plus its own writes, writes flush at
// task end, and uncentered reduction contributions collect in per-task
// buffers merged after all tasks. Every access is containment-checked
// against the task's subregion; a violation means the partitioning was
// unsound and aborts the launch.
func RunLaunch(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop) error {
	iter, ok := parts[pl.IterSym]
	if !ok {
		return fmt.Errorf("launch %s: unbound iteration partition %q", pl, pl.IterSym)
	}

	// Launch-entry snapshot of every region (tasks read this, not each
	// other's writes).
	snapM := m.Clone()

	perColor := make([]map[FieldKey]*ReduceBuffer, iter.NumSubs())
	for color := 0; color < iter.NumSubs(); color++ {
		res, err := RunShard(snapM, parts, pl, color)
		if err != nil {
			return err
		}
		// Flush in task order (overlapping aliased writes resolve
		// last-color-wins).
		FlushShard(m, res)
		perColor[color] = res.Reductions
	}

	MergeShardReductions(m, perColor)
	return nil
}

// FlushShard applies a shard's private writes (plain stores, centered
// reductions, and §5.1 guarded in-place reductions) to m's live
// regions. Reduction buffers are not touched — merge those with
// MergeShardReductions once every contributing shard has flushed.
func FlushShard(m *ir.Machine, res *ShardResult) {
	for k, vals := range res.Scalars {
		r := m.Regions[k.Region]
		data, base := r.Scalar(k.Field), r.Window().Lo
		for idx, v := range vals {
			data[idx-base] = v
		}
	}
	for k, vals := range res.Indexes {
		r := m.Regions[k.Region]
		data, base := r.Index(k.Field), r.Window().Lo
		for idx, v := range vals {
			data[idx-base] = v
		}
	}
}

// MergeShardReductions folds per-color reduction buffers into the live
// regions. The order is fixed: fields sorted by (region, field),
// elements ascending, and each element's per-color contributions in
// ascending color order seeded by the first contributing color. A
// distributed executor reproduces exactly this fold piecewise at each
// element's owner, which is why merged results are deterministic and
// node-count independent.
func MergeShardReductions(m *ir.Machine, perColor []map[FieldKey]*ReduceBuffer) {
	type elem struct {
		op   string
		idxs map[int64]bool
	}
	fields := map[FieldKey]*elem{}
	for _, bufs := range perColor {
		for k, buf := range bufs {
			e := fields[k]
			if e == nil {
				e = &elem{op: buf.Op, idxs: map[int64]bool{}}
				fields[k] = e
			}
			for idx := range buf.Values {
				e.idxs[idx] = true
			}
		}
	}
	keys := make([]FieldKey, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Region != keys[j].Region {
			return keys[i].Region < keys[j].Region
		}
		return keys[i].Field < keys[j].Field
	})
	for _, k := range keys {
		e := fields[k]
		r := m.Regions[k.Region]
		data, base := r.Scalar(k.Field), r.Window().Lo
		idxs := make([]int64, 0, len(e.idxs))
		for idx := range e.idxs {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			var v float64
			first := true
			for _, bufs := range perColor {
				buf := bufs[k]
				if buf == nil {
					continue
				}
				c, ok := buf.Values[idx]
				if !ok {
					continue
				}
				if first {
					v = c
					first = false
				} else {
					v = ir.ApplyReduce(e.op, v, c)
				}
			}
			data[idx-base] = ir.ApplyReduce(e.op, data[idx-base], v)
		}
	}
}

// RunShard executes one color's task of pl. Reads see m's current region
// data plus the task's own earlier writes; m is not mutated, so several
// shards may run against the same machine (a launch-entry snapshot, or a
// distributed node's region windows made current by a ghost exchange).
//
// The body is resolved once per call (names to frame slots, fields to
// backing slices, accesses to this color's subregions): a malformed body
// fails before any iteration runs, value-dependent errors where they occur.
func RunShard(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) (*ShardResult, error) {
	iter, ok := parts[pl.IterSym]
	if !ok {
		return nil, fmt.Errorf("launch %s: unbound iteration partition %q", pl, pl.IterSym)
	}
	s := &shard{m: m, parts: parts, pl: pl, color: color, slots: map[string]int{}, fields: map[FieldKey]*field{},
		res: &ShardResult{
			Scalars:    map[FieldKey]map[int64]float64{},
			Indexes:    map[FieldKey]map[int64]int64{},
			Reductions: map[FieldKey]*ReduceBuffer{},
		}}
	loopVar := s.slot(pl.Loop.Var)
	body, err := s.resolve(pl.Loop.Stmts)
	if err != nil {
		return nil, fmt.Errorf("task %d: %w", color, err)
	}
	s.vals, s.bound = make([]ir.Value, len(s.names)), make([]bool, len(s.names))
	var taskErr error
	iter.Sub(color).Each(func(k int64) bool {
		clear(s.bound)
		s.set(loopVar, ir.IndexValue(k))
		if err := s.run(body); err != nil {
			taskErr = fmt.Errorf("task %d, iteration %d: %w", color, k, err)
			return false
		}
		return true
	})
	if taskErr != nil {
		return nil, taskErr
	}
	return s.res, nil
}

// shard is one RunShard call: what the body is resolved against, the
// variable frame (one slot per name, cleared each iteration) and the
// result the task's writes build.
type shard struct {
	m      *ir.Machine
	parts  map[string]*region.Partition
	pl     *ParallelLoop
	color  int
	slots  map[string]int
	names  []string // slot → name
	fields map[FieldKey]*field
	vals   []ir.Value
	bound  []bool
	res    *ShardResult
}

func (s *shard) slot(name string) int {
	i, ok := s.slots[name]
	if !ok {
		i = len(s.names)
		s.slots[name] = i
		s.names = append(s.names, name)
	}
	return i
}

func (s *shard) set(slot int, v ir.Value) {
	s.vals[slot] = v
	s.bound[slot] = true
}

func (s *shard) index(slot int) (int64, error) {
	v := s.vals[slot]
	switch {
	case !s.bound[slot]:
		return 0, fmt.Errorf("unbound variable %q", s.names[slot])
	case !v.IsIndex:
		return 0, fmt.Errorf("variable %q is not an index", s.names[slot])
	case !v.Valid:
		return 0, fmt.Errorf("variable %q holds an invalid index", s.names[slot])
	}
	return v.I, nil
}

// field is one region field the body names, shared by every statement
// naming it: its backing slice and the task's private writes and
// reduction buffer, created on first use and entered in the result.
// Element idx lives at position idx-base of the backing slice, base
// being the region's window origin; every access has passed the
// containment check against a subregion the window covers.
type field struct {
	key     FieldKey
	kind    region.FieldKind
	base    int64
	scalars []float64
	indexes []int64
	ranges  []geometry.Interval
	wScalar map[int64]float64
	wIndex  map[int64]int64
	buf     *ReduceBuffer
}

func (s *shard) field(st ir.Stmt, regionName, name string) (*field, error) {
	k := FieldKey{regionName, name}
	if f, ok := s.fields[k]; ok {
		return f, nil
	}
	reg := s.m.Regions[regionName]
	if reg == nil {
		return nil, fmt.Errorf("%s: unknown region %s", st, regionName)
	}
	kind, ok := reg.FieldKindOf(name)
	if !ok {
		return nil, fmt.Errorf("%s: region %s has no field %s", st, regionName, name)
	}
	f := &field{key: k, kind: kind, base: reg.Window().Lo}
	switch kind {
	case region.ScalarField:
		f.scalars = reg.Scalar(name)
	case region.IndexField:
		f.indexes = reg.Index(name)
	default:
		f.ranges = reg.Ranges(name)
	}
	s.fields[k] = f
	return f, nil
}

// Reads hit the task's own writes first, then the machine's data.
func (f *field) scalar(idx int64) float64 {
	if f.wScalar != nil {
		if v, ok := f.wScalar[idx]; ok {
			return v
		}
	}
	return f.scalars[idx-f.base]
}

func (s *shard) writeScalar(f *field, idx int64, v float64) {
	if f.wScalar == nil {
		f.wScalar = map[int64]float64{}
		s.res.Scalars[f.key] = f.wScalar
	}
	f.wScalar[idx] = v
}

// access is a statement's execution plan with this color's subregion of
// its partition.
type access struct {
	*AccessInfo
	sub geometry.IndexSet
}

func (s *shard) access(st ir.Stmt) (access, error) {
	info := s.pl.Access[st]
	if info == nil {
		return access{}, fmt.Errorf("%s: no access plan", st)
	}
	p, ok := s.parts[info.Sym]
	if !ok {
		return access{}, fmt.Errorf("%s: unbound partition %q", st, info.Sym)
	}
	return access{info, p.Sub(s.color)}, nil
}

// check is the containment check of an access index against the task's
// subregion.
func (s *shard) check(a *access, idx int64) error {
	if a.sub.Contains(idx) {
		return nil
	}
	return fmt.Errorf("access %s[%d].%s escapes subregion %s[%d] — unsound partitioning",
		a.Region, idx, a.Field, a.Sym, s.color)
}

// step is one resolved statement; which fields are set depends on the
// type of src.
type step struct {
	src   ir.Stmt
	acc   access // Load, Store, Inner
	f     *field // Load, Store; Inner's range field
	idx   int    // the slot of Idx, Arg or Src
	dst   int    // the slot of Var
	x, y  *expr  // Rhs, or IfCmp's L and R
	op    string // Store, with the op's identity in ident
	ident float64
	fn    geometry.IndexMap // Apply
	in    func(int64) bool  // IfIn: membership in Space, nil if unknown
	body  []step            // Inner's body, or the Then branch
	els   []step
}

func (s *shard) resolve(stmts []ir.Stmt) ([]step, error) {
	out := make([]step, len(stmts))
	for i, st := range stmts {
		if err := s.resolveStep(&out[i], st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *shard) resolveStep(n *step, src ir.Stmt) (err error) {
	n.src = src
	var then, els []ir.Stmt
	switch st := src.(type) {
	case *ir.Load:
		n.idx, n.dst = s.slot(st.Idx), s.slot(st.Var)
		if n.f, err = s.field(st, st.Region, st.Field); err != nil {
			return err
		}
		if n.f.kind == region.RangeField {
			return fmt.Errorf("%s: cannot load range field", st)
		}
		n.acc, err = s.access(st)
	case *ir.Store:
		n.idx, n.x, n.op = s.slot(st.Idx), s.expr(st.Rhs), string(st.Op)
		if n.f, err = s.field(st, st.Region, st.Field); err != nil {
			return err
		}
		if n.acc, err = s.access(st); err != nil {
			return err
		}
		if n.f.kind == region.RangeField || (n.acc.Guarded || n.acc.Buffered) && n.f.kind != region.ScalarField {
			return fmt.Errorf("%s: cannot store to %s field %s", st, n.f.kind, st.Field)
		}
		switch st.Op {
		case lang.OpSet:
			if n.acc.Buffered {
				return fmt.Errorf("%s: reduction operator %q has no identity", st, st.Op)
			}
		case lang.OpAdd, lang.OpMul, lang.OpMax, lang.OpMin:
			n.ident = ir.ReduceIdentity(n.op)
		default:
			return fmt.Errorf("%s: unknown reduction operator %q", st, st.Op)
		}
	case *ir.LetScalar:
		n.dst, n.x = s.slot(st.Var), s.expr(st.Rhs)
	case *ir.Apply:
		n.idx, n.dst, n.fn = s.slot(st.Arg), s.slot(st.Var), s.m.Funcs[st.Func]
	case *ir.Alias:
		n.idx, n.dst = s.slot(st.Src), s.slot(st.Var)
	case *ir.Inner:
		n.idx, n.dst = s.slot(st.Idx), s.slot(st.Var)
		if n.f, err = s.field(st, st.RangeRegion, st.RangeField); err != nil {
			return err
		}
		if n.f.kind != region.RangeField {
			return fmt.Errorf("%s: %s is a %s field, not a range field", st, st.RangeField, n.f.kind)
		}
		n.acc, err = s.access(st)
		then = st.Body
	case *ir.IfIn:
		n.idx = s.slot(st.Idx)
		if reg, ok := s.m.Regions[st.Space]; ok {
			size := reg.Size()
			n.in = func(i int64) bool { return i >= 0 && i < size }
		} else if p, ok := s.m.Partitions[st.Space]; ok {
			n.in = p.UnionAll().Contains
		}
		then, els = st.Then, st.Else
	case *ir.IfCmp:
		n.x, n.y = s.expr(st.L), s.expr(st.R)
		then, els = st.Then, st.Else
	default:
		return fmt.Errorf("unknown statement %T", src)
	}
	if err == nil {
		n.body, err = s.resolve(then)
	}
	if err == nil {
		n.els, err = s.resolve(els)
	}
	return err
}

func (s *shard) run(body []step) error {
	for i := range body {
		if err := s.step(&body[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *shard) step(n *step) error {
	switch st := n.src.(type) {
	case *ir.Load:
		k, err := s.index(n.idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if err := s.check(&n.acc, k); err != nil {
			return err
		}
		if n.f.kind == region.ScalarField {
			s.set(n.dst, ir.ScalarValue(n.f.scalar(k)))
			return nil
		}
		v, ok := n.f.wIndex[k]
		if !ok {
			v = n.f.indexes[k-n.f.base]
		}
		if v < 0 {
			s.set(n.dst, ir.InvalidIndex())
		} else {
			s.set(n.dst, ir.IndexValue(v))
		}

	case *ir.Store:
		k, err := s.index(n.idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		rhs, err := s.eval(n.x)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		f := n.f
		if n.acc.Guarded {
			// §5.1: apply only when this task owns the target; the
			// disjoint complete target partition guarantees exactly-once
			// across the launch.
			if n.acc.sub.Contains(k) {
				s.writeScalar(f, k, ir.ApplyReduce(n.op, f.scalar(k), rhs))
			}
			return nil
		}
		if err := s.check(&n.acc, k); err != nil {
			return err
		}
		if n.acc.Buffered {
			if f.buf == nil {
				f.buf = &ReduceBuffer{Op: n.op, Values: map[int64]float64{}}
				s.res.Reductions[f.key] = f.buf
			}
			old, seen := f.buf.Values[k]
			if !seen {
				old = n.ident
			}
			f.buf.Values[k] = ir.ApplyReduce(n.op, old, rhs)
			return nil
		}
		// Plain store or centered reduction: task-private read-modify-
		// write. Pointer fields take the raw value.
		if f.kind == region.IndexField {
			if f.wIndex == nil {
				f.wIndex = map[int64]int64{}
				s.res.Indexes[f.key] = f.wIndex
			}
			f.wIndex[k] = int64(rhs)
			return nil
		}
		s.writeScalar(f, k, ir.ApplyReduce(n.op, f.scalar(k), rhs))
		return nil

	case *ir.LetScalar:
		v, err := s.eval(n.x)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		s.set(n.dst, ir.ScalarValue(v))

	case *ir.Apply:
		if n.fn == nil {
			return fmt.Errorf("%s: unknown index function", st)
		}
		arg, err := s.index(n.idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if v, ok := n.fn.Apply(arg); ok {
			s.set(n.dst, ir.IndexValue(v))
		} else {
			s.set(n.dst, ir.InvalidIndex())
		}

	case *ir.Alias:
		if !s.bound[n.idx] {
			return fmt.Errorf("%s: unbound source", st)
		}
		s.set(n.dst, s.vals[n.idx])

	case *ir.Inner:
		k, err := s.index(n.idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if err := s.check(&n.acc, k); err != nil {
			return err
		}
		iv := n.f.ranges[k-n.f.base]
		for j := iv.Lo; j < iv.Hi; j++ {
			s.set(n.dst, ir.IndexValue(j))
			if err := s.run(n.body); err != nil {
				return err
			}
		}

	case *ir.IfIn:
		if !s.bound[n.idx] {
			return fmt.Errorf("%s: unbound index", st)
		}
		v := s.vals[n.idx]
		in := false
		if v.Valid {
			if n.in == nil {
				return fmt.Errorf("%s: unknown space", st)
			}
			in = n.in(v.I)
		}
		if in {
			return s.run(n.body)
		}
		return s.run(n.els)

	case *ir.IfCmp:
		l, err := s.eval(n.x)
		if err != nil {
			return err
		}
		r, err := s.eval(n.y)
		if err != nil {
			return err
		}
		if st.Op != "==" && st.Op != "!=" {
			return fmt.Errorf("%s: unknown comparison", st)
		}
		if (l == r) == (st.Op == "==") {
			return s.run(n.body)
		}
		return s.run(n.els)
	}
	return nil
}

// expr is a resolved scalar expression. op is a BinExpr operator's byte
// ('+', '-', '*', '/') or one of the kinds below.
type expr struct {
	op   byte
	c    float64
	slot int
	name string // variable or function name, unknown operator or type
	l, r *expr
	args []*expr
}

const (
	exprConst byte = iota
	exprVar
	exprCall
	exprBadOp   // a BinExpr whose operator name holds
	exprUnknown // an expression of the type name holds
)

func (s *shard) expr(e ir.ScalarExpr) *expr {
	switch x := e.(type) {
	case ir.Const:
		return &expr{op: exprConst, c: x.V}
	case ir.VarExpr:
		return &expr{op: exprVar, slot: s.slot(x.Name), name: x.Name}
	case ir.CallExpr:
		out := &expr{op: exprCall, name: x.Func, args: make([]*expr, len(x.Args))}
		for i, a := range x.Args {
			out.args[i] = s.expr(a)
		}
		return out
	case ir.BinExpr:
		out := &expr{op: exprBadOp, name: x.Op, l: s.expr(x.L), r: s.expr(x.R)}
		switch x.Op {
		case "+", "-", "*", "/":
			out.op = x.Op[0]
		}
		return out
	}
	return &expr{op: exprUnknown, name: fmt.Sprintf("%T", e)}
}

func (s *shard) eval(e *expr) (float64, error) {
	switch e.op {
	case exprConst:
		return e.c, nil
	case exprVar:
		if !s.bound[e.slot] {
			return 0, fmt.Errorf("unbound variable %q", e.name)
		}
		return s.vals[e.slot].AsScalar(), nil
	case exprCall:
		args := make([]float64, 0, 8) // on the stack unless a call has more
		for _, a := range e.args {
			v, err := s.eval(a)
			if err != nil {
				return 0, err
			}
			args = append(args, v)
		}
		return ir.OpaqueFn(e.name, args), nil
	case exprUnknown:
		return 0, fmt.Errorf("unknown scalar expression %s", e.name)
	}
	l, err := s.eval(e.l)
	if err != nil {
		return 0, err
	}
	r, err := s.eval(e.r)
	if err != nil {
		return 0, err
	}
	switch e.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, nil
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("unknown operator %q", e.name)
}
