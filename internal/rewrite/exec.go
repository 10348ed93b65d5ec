package rewrite

import (
	"fmt"
	"math/bits"
	"sort"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
)

// FieldKey identifies a region field.
type FieldKey struct{ Region, Field string }

// layout places the elements of an index set at dense positions in
// ascending order: interval i of the set starts at position off[i].
// Lookups try the interval last hit, [lo, hi) at position lo-shift,
// before a binary search.
type layout struct {
	set           geometry.IndexSet
	ivs           []geometry.Interval
	off           []int64 // one entry per interval, then the set's size
	lo, hi, shift int64
}

func newLayout(set geometry.IndexSet) *layout {
	ivs := set.Intervals()
	off := make([]int64, len(ivs)+1)
	for i, iv := range ivs {
		off[i+1] = off[i] + iv.Len()
	}
	return &layout{set: set, ivs: ivs, off: off}
}

// pos returns idx's position, or -1 if idx is not in the set.
func (l *layout) pos(idx int64) int64 {
	if idx >= l.lo && idx < l.hi {
		return idx - l.shift
	}
	return l.seek(idx)
}

func (l *layout) seek(idx int64) int64 {
	i, ok := search(l.ivs, idx)
	if !ok {
		return -1
	}
	l.lo, l.hi, l.shift = l.ivs[i].Lo, l.ivs[i].Hi, l.ivs[i].Lo-l.off[i]
	return idx - l.shift
}

// search returns the interval of ivs, sorted and disjoint, holding idx.
func search(ivs []geometry.Interval, idx int64) (int, bool) {
	lo, hi := 0, len(ivs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ivs[mid].Hi > idx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, lo < len(ivs) && ivs[lo].Lo <= idx
}

// Run is one field's values over an index set, held densely in the
// set's ascending order, with a bitmap of the elements that hold one. A
// shard's private writes to a field and its reduction buffer for a
// field are each a run over the union of this color's subregions of the
// field's store accesses: every element a store's containment check
// admits lies there, so an element outside the run was never written.
type Run[V float64 | int64] struct {
	at   *layout
	vals []V
	bits []uint64
}

func newRun[V float64 | int64](at *layout) *Run[V] {
	n := at.off[len(at.ivs)]
	return &Run[V]{at: at, vals: make([]V, n), bits: make([]uint64, (n+63)/64)}
}

// Get returns the value held at idx, and false if there is none.
func (r *Run[V]) Get(idx int64) (V, bool) {
	if p := r.at.pos(idx); p >= 0 && r.bits[p>>6]&(1<<(p&63)) != 0 {
		return r.vals[p], true
	}
	var zero V
	return zero, false
}

// put stores v at idx, which must lie in the run's domain.
func (r *Run[V]) put(idx int64, v V) {
	p := r.at.pos(idx)
	r.vals[p] = v
	r.bits[p>>6] |= 1 << (p & 63)
}

// domain returns the elements the run can hold a value for.
func (r *Run[V]) domain() geometry.IndexSet { return r.at.set }

// EachRun calls fn on every maximal interval [lo, hi) of elements that
// hold a value, ascending, with their values; it stops when fn returns
// false.
func (r *Run[V]) EachRun(fn func(lo, hi int64, vals []V) bool) {
	for i, iv := range r.at.ivs {
		start, end := r.at.off[i], r.at.off[i+1]
		for p := r.next(start, end, true); p < end; {
			q := r.next(p, end, false)
			if !fn(iv.Lo+p-start, iv.Lo+q-start, r.vals[p:q]) {
				return
			}
			p = r.next(q, end, true)
		}
	}
}

// next returns the first position in [p, end) whose bit equals want, or
// end if there is none.
func (r *Run[V]) next(p, end int64, want bool) int64 {
	for p < end {
		w := r.bits[p>>6]
		if !want {
			w = ^w
		}
		if w >>= uint64(p & 63); w != 0 {
			return min(p+int64(bits.TrailingZeros64(w)), end)
		}
		p = p | 63 + 1
	}
	return end
}

// ReduceBuffer accumulates one task's uncentered reduction contributions
// for one field: an element not yet present starts at the op's identity,
// and contributions fold into it in iteration order.
type ReduceBuffer struct {
	Op string
	Run[float64]
}

// ShardResult is the outcome of running one color's shard of a parallel
// loop against a stable snapshot: the task's private writes (plain
// stores, centered reductions, and §5.1 guarded in-place reductions) and
// its uncentered reduction contributions, each a dense run per field.
// Nothing is applied to any machine — the caller decides how: RunLaunch
// flushes shards in ascending color order and merges buffers after the
// launch; the distributed executor ships remote-owned pieces to their
// owners.
type ShardResult struct {
	Scalars    map[FieldKey]*Run[float64]
	Indexes    map[FieldKey]*Run[int64]
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
	for k, w := range res.Scalars {
		r := m.Regions[k.Region]
		flushRun(w, r.Scalar(k.Field), r.Window().Lo)
	}
	for k, w := range res.Indexes {
		r := m.Regions[k.Region]
		flushRun(w, r.Index(k.Field), r.Window().Lo)
	}
}

func flushRun[V float64 | int64](w *Run[V], data []V, base int64) {
	w.EachRun(func(lo, hi int64, vals []V) bool {
		copy(data[lo-base:hi-base], vals)
		return true
	})
}

// MergeShardReductions folds per-color reduction buffers into the live
// regions. The order is fixed: fields sorted by (region, field), and
// each element's per-color contributions folded in ascending color
// order seeded by the first contributing color, that total then folded
// into the element (see Fold). A distributed executor reproduces
// exactly this fold piecewise at each element's owner, which is why
// merged results are deterministic and node-count independent.
func MergeShardReductions(m *ir.Machine, perColor []map[FieldKey]*ReduceBuffer) {
	type field struct {
		op      string
		domains []geometry.IndexSet
	}
	fields := map[FieldKey]*field{}
	for _, bufs := range perColor {
		for k, buf := range bufs {
			f := fields[k]
			if f == nil {
				f = &field{op: buf.Op}
				fields[k] = f
			}
			f.domains = append(f.domains, buf.domain())
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
		fold := NewFold(fields[k].op, geometry.UnionAll(fields[k].domains))
		for color, bufs := range perColor {
			if buf := bufs[k]; buf != nil {
				fold.AddBuffer(color, buf)
			}
		}
		fold.Apply(m.Regions[k.Region], k.Field)
	}
}

// Fold is one field's ordered reduction merge over an index set.
// Contributions are added color by color in ascending order: an
// element's first contributing color seeds its total and later colors
// fold into it; Apply then folds each total into the region, once per
// element. That is the order bit identity depends on.
type Fold struct {
	op   string
	at   *layout
	acc  []float64
	from []int32 // per element: 1 + the last color added, 0 for none
}

// NewFold returns an empty fold under op over set.
func NewFold(op string, set geometry.IndexSet) *Fold {
	at := newLayout(set)
	n := at.off[len(at.ivs)]
	return &Fold{op: op, at: at, acc: make([]float64, n), from: make([]int32, n)}
}

// Add folds color's contribution v to element idx, and ignores an
// element outside the fold's set. Colors must come in ascending order.
// A second contribution of one color to one element is dropped: it is
// the same value, packed twice from the color's one shard buffer.
func (f *Fold) Add(color int, idx int64, v float64) {
	p := f.at.pos(idx)
	if p < 0 {
		return
	}
	switch c := int32(color) + 1; f.from[p] {
	case c:
	case 0:
		f.acc[p], f.from[p] = v, c
	default:
		f.acc[p], f.from[p] = ir.ApplyReduce(f.op, f.acc[p], v), c
	}
}

// AddBuffer adds every contribution of color's buffer that lies in the
// fold's set.
func (f *Fold) AddBuffer(color int, buf *ReduceBuffer) {
	buf.EachRun(func(lo, _ int64, vals []float64) bool {
		for i, v := range vals {
			f.Add(color, lo+int64(i), v)
		}
		return true
	})
}

// Apply folds each element's total into r's field, ascending.
func (f *Fold) Apply(r *region.Region, field string) {
	data, base := r.Scalar(field), r.Window().Lo
	for i, iv := range f.at.ivs {
		for p := f.at.off[i]; p < f.at.off[i+1]; p++ {
			if f.from[p] != 0 {
				k := iv.Lo + p - f.at.off[i] - base
				data[k] = ir.ApplyReduce(f.op, data[k], f.acc[p])
			}
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
			Scalars:    map[FieldKey]*Run[float64]{},
			Indexes:    map[FieldKey]*Run[int64]{},
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
// reduction buffer, dense runs over the union of stores (this color's
// subregions of the field's store accesses), created on first use and
// entered in the result. Element idx lives at position idx-base of the
// backing slice, base being the region's window origin; every access
// has passed the containment check against a subregion the window
// covers.
type field struct {
	key     FieldKey
	kind    region.FieldKind
	base    int64
	scalars []float64
	indexes []int64
	ranges  []geometry.Interval
	stores  []geometry.IndexSet
	at      *layout // over the union of stores, made on first write
	wScalar *Run[float64]
	wIndex  *Run[int64]
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
		if v, ok := f.wScalar.Get(idx); ok {
			return v
		}
	}
	return f.scalars[idx-f.base]
}

func (f *field) index(idx int64) int64 {
	if f.wIndex != nil {
		if v, ok := f.wIndex.Get(idx); ok {
			return v
		}
	}
	return f.indexes[idx-f.base]
}

// layout returns the layout of f's runs.
func (f *field) layout() *layout {
	if f.at == nil {
		f.at = newLayout(geometry.UnionAll(f.stores))
	}
	return f.at
}

func (s *shard) writeScalar(f *field, idx int64, v float64) {
	if f.wScalar == nil {
		f.wScalar = newRun[float64](f.layout())
		s.res.Scalars[f.key] = f.wScalar
	}
	f.wScalar.put(idx, v)
}

// access is a statement's execution plan with this color's subregion of
// its partition, and the interval of it the access last hit.
type access struct {
	*AccessInfo
	sub  geometry.IndexSet
	last geometry.Interval
}

// contains reports whether idx lies in the access's subregion, trying
// the interval it last hit before a binary search over the rest.
func (a *access) contains(idx int64) bool {
	return idx >= a.last.Lo && idx < a.last.Hi || a.seek(idx)
}

func (a *access) seek(idx int64) bool {
	ivs := a.sub.Intervals()
	i, ok := search(ivs, idx)
	if ok {
		a.last = ivs[i]
	}
	return ok
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
	return access{AccessInfo: info, sub: p.Sub(s.color)}, nil
}

// check is the containment check of an access index against the task's
// subregion.
func (s *shard) check(a *access, idx int64) error {
	if a.contains(idx) {
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
		n.f.stores = append(n.f.stores, n.acc.sub)
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
		if v := n.f.index(k); v < 0 {
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
			if n.acc.contains(k) {
				s.writeScalar(f, k, ir.ApplyReduce(n.op, f.scalar(k), rhs))
			}
			return nil
		}
		if err := s.check(&n.acc, k); err != nil {
			return err
		}
		if n.acc.Buffered {
			if f.buf == nil {
				f.buf = &ReduceBuffer{Op: n.op, Run: *newRun[float64](f.layout())}
				s.res.Reductions[f.key] = f.buf
			}
			old, seen := f.buf.Get(k)
			if !seen {
				old = n.ident
			}
			f.buf.put(k, ir.ApplyReduce(n.op, old, rhs))
			return nil
		}
		// Plain store or centered reduction: task-private read-modify-
		// write. Pointer fields take the raw value.
		if f.kind == region.IndexField {
			if f.wIndex == nil {
				f.wIndex = newRun[int64](f.layout())
				s.res.Indexes[f.key] = f.wIndex
			}
			f.wIndex.put(k, int64(rhs))
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
