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

// Run is one field's values over an index set, held densely in the
// set's ascending order, with a bitmap of the elements that hold one. A
// shard's private writes to a field and its reduction buffer for a
// field are each a run over the union of this color's subregions of the
// field's store accesses: every element a store's containment check
// admits lies there, so an element outside the run was never written.
type Run[V float64 | int64] struct {
	at   *geometry.Cursor
	vals []V
	bits []uint64
}

func newRun[V float64 | int64](at *geometry.Cursor) *Run[V] {
	n := at.Layout().Len()
	return &Run[V]{at: at, vals: make([]V, n), bits: make([]uint64, (n+63)/64)}
}

// Get returns the value held at idx, and false if there is none.
func (r *Run[V]) Get(idx int64) (V, bool) {
	if p := r.at.Pos(idx); p >= 0 && r.has(p) {
		return r.vals[p], true
	}
	var zero V
	return zero, false
}

// put stores v at idx, which must lie in the run's domain.
func (r *Run[V]) put(idx int64, v V) { r.set(r.at.Pos(idx), v) }

// has reports whether position p holds a value.
func (r *Run[V]) has(p int64) bool { return r.bits[p>>6]&(1<<(p&63)) != 0 }

// set stores v at position p.
func (r *Run[V]) set(p int64, v V) {
	r.vals[p] = v
	r.bits[p>>6] |= 1 << (p & 63)
}

// domain returns the elements the run can hold a value for.
func (r *Run[V]) domain() geometry.IndexSet { return r.at.Layout().Set() }

// EachRun calls fn on every maximal interval [lo, hi) of elements that
// hold a value, ascending, with their values; it stops when fn returns
// false.
func (r *Run[V]) EachRun(fn func(lo, hi int64, vals []V) bool) {
	l := r.at.Layout()
	for i, iv := range l.Intervals() {
		start, end := l.Start(i), l.Start(i+1)
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
		flushRun(k, w, r.Scalar(k.Field), r.Window())
	}
	for k, w := range res.Indexes {
		r := m.Regions[k.Region]
		flushRun(k, w, r.Index(k.Field), r.Window())
	}
}

// flushRun copies w's values into data, which holds the elements win
// places. Each run of values lies in one held interval, so it is placed
// once.
func flushRun[V float64 | int64](k FieldKey, w *Run[V], data []V, win *geometry.Layout) {
	at := win.Cursor()
	w.EachRun(func(lo, hi int64, vals []V) bool {
		copy(data[span(k, &at, geometry.Interval{Lo: lo, Hi: hi}):], vals)
		return true
	})
}

// span returns the position of iv's first element in at's layout, and
// panics if it does not hold all of iv: a write the containment checks
// admitted outside a window means the window misses a subregion.
func span(k FieldKey, at *geometry.Cursor, iv geometry.Interval) int64 {
	p, ok := at.Span(iv)
	if !ok {
		panic(fmt.Sprintf("rewrite: %s.%s%s lies outside the window %s", k.Region, k.Field, iv, at.Layout().Set()))
	}
	return p
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
	at   geometry.Cursor
	acc  []float64
	from []int32 // per element: 1 + the last color added, 0 for none
}

// NewFold returns an empty fold under op over set.
func NewFold(op string, set geometry.IndexSet) *Fold {
	l := geometry.NewLayout(set)
	n := l.Len()
	return &Fold{op: op, at: l.Cursor(), acc: make([]float64, n), from: make([]int32, n)}
}

// Add folds color's contribution v to element idx, and ignores an
// element outside the fold's set. Colors must come in ascending order.
// A second contribution of one color to one element is dropped: it is
// the same value, packed twice from the color's one shard buffer.
func (f *Fold) Add(color int, idx int64, v float64) {
	p := f.at.Pos(idx)
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

// Apply folds each element's total into r's field, ascending. r must
// hold the fold's whole set; each of its intervals lies in one held
// interval and is placed once.
func (f *Fold) Apply(r *region.Region, field string) {
	data, win, l := r.Scalar(field), r.Window().Cursor(), f.at.Layout()
	for i, iv := range l.Intervals() {
		start, end := l.Start(i), l.Start(i+1)
		base := span(FieldKey{r.Name(), field}, &win, iv) - start
		for p := start; p < end; p++ {
			if f.from[p] != 0 {
				data[base+p] = ir.ApplyReduce(f.op, data[base+p], f.acc[p])
			}
		}
	}
}

// RunShard executes one color's task of pl. Reads see m's current region
// data plus the task's own earlier writes; m is not mutated, so several
// shards may run against the same machine (a launch-entry snapshot, or a
// distributed node's region windows made current by a ghost exchange).
//
// The body is compiled once per call, each statement and expression
// specialised on what resolving fixes: names become slots of a typed
// frame, fields their backing slices, accesses this color's subregions,
// stores their §5 plan and operator, opaque calls their seeds. A
// malformed body fails before any iteration runs, value-dependent errors
// where they occur. An access indexed by the loop variable, which no
// statement rebinds, is checked once for the whole shard when the
// iteration subregion lies inside the access's subregion; every other
// access is checked per element.
//
// A batch-safe body (see batchSafe) runs statement-at-a-time over
// batches of up to 256 iterations, one lane each; §5.1 guarded and
// buffered reductions are recorded per lane and committed when the batch
// ends, lane by lane and within a lane in statement order, so every
// float fold happens in (iteration, statement) order. Every other body
// runs element-at-a-time, one closure call per statement per iteration.
// A batched shard that meets any error is run again from the start
// element-at-a-time, which reports the sequentially first (iteration,
// statement) error; that is sound because m is never mutated.
func RunShard(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) (*ShardResult, error) {
	if batchSafe(pl) {
		if res, err := runBatched(m, parts, pl, color); err == nil {
			return res, nil
		}
	}
	return runElements(m, parts, pl, color)
}

func newShard(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) *shard {
	return &shard{m: m, parts: parts, pl: pl, color: color, slots: map[string]int{}, fields: map[FieldKey]*field{},
		res: &ShardResult{
			Scalars:    map[FieldKey]*Run[float64]{},
			Indexes:    map[FieldKey]*Run[int64]{},
			Reductions: map[FieldKey]*ReduceBuffer{},
		}}
}

// runElements is RunShard element-at-a-time: the compiled body runs once
// per iteration over a frame of one value per slot.
func runElements(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) (*ShardResult, error) {
	iter, ok := parts[pl.IterSym]
	if !ok {
		return nil, fmt.Errorf("launch %s: unbound iteration partition %q", pl, pl.IterSym)
	}
	s := newShard(m, parts, pl, color)
	loopVar := s.slot(pl.Loop.Var)
	body, err := s.compile(pl.Loop.Stmts)
	if err != nil {
		return nil, fmt.Errorf("task %d: %w", color, err)
	}
	sub := iter.Sub(color)
	s.hoist(loopVar, sub)
	n := len(s.names)
	s.state, s.f, s.i = make([]uint8, n), make([]float64, n), make([]int64, n)
	for _, iv := range sub.Intervals() {
		for k := iv.Lo; k < iv.Hi; k++ {
			clear(s.state)
			s.state[loopVar], s.i[loopVar] = indexSlot, k
			if err := run(body); err != nil {
				return nil, fmt.Errorf("task %d, iteration %d: %w", color, k, err)
			}
		}
	}
	return s.res, nil
}

// hoist marks the accesses whose containment check one SubsetOf proves
// for every iteration of sub: those indexed by the loop variable when no
// statement rebinds it.
func (s *shard) hoist(loopVar int, sub geometry.IndexSet) {
	if s.rebinds {
		return
	}
	for _, a := range s.accs {
		a.hoisted = a.slot == loopVar && sub.SubsetOf(a.sub)
	}
}

// The states of a frame slot. A scalar slot holds its value in f, an
// index slot in i.
const (
	unbound uint8 = iota
	scalarSlot
	indexSlot
	invalidSlot // an index a partial function has no value for
)

// shard is one RunShard call: what the body is compiled against, the
// element-at-a-time frame (one slot per name, unbound again each
// iteration) and the result the task's writes build.
type shard struct {
	m       *ir.Machine
	parts   map[string]*region.Partition
	pl      *ParallelLoop
	color   int
	slots   map[string]int
	names   []string // slot → name
	rebinds bool     // a statement binds the loop variable
	fields  map[FieldKey]*field
	accs    []*access
	state   []uint8
	f       []float64
	i       []int64
	res     *ShardResult
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

// dest returns the slot of a variable a statement binds.
func (s *shard) dest(name string) int {
	if name == s.pl.Loop.Var {
		s.rebinds = true
	}
	return s.slot(name)
}

// index returns the index slot holds, and st's error if it holds none.
func (s *shard) index(st ir.Stmt, slot int) (int64, error) {
	if s.state[slot] == indexSlot {
		return s.i[slot], nil
	}
	return 0, s.notIndex(st, slot)
}

func (s *shard) notIndex(st ir.Stmt, slot int) error {
	name := s.names[slot]
	switch s.state[slot] {
	case unbound:
		return fmt.Errorf("%s: unbound variable %q", st, name)
	case scalarSlot:
		return fmt.Errorf("%s: variable %q is not an index", st, name)
	}
	return fmt.Errorf("%s: variable %q holds an invalid index", st, name)
}

// coerce reads a slot that holds no scalar in arithmetic: an index reads
// as its number, an invalid index as 0.
func (s *shard) coerce(slot int) (float64, error) {
	switch s.state[slot] {
	case indexSlot:
		return float64(s.i[slot]), nil
	case invalidSlot:
		return 0, nil
	}
	return 0, fmt.Errorf("unbound variable %q", s.names[slot])
}

// field is one region field the body names, shared by every statement
// naming it: its backing slice and the task's private writes and
// reduction buffer, dense runs over the union of stores (this color's
// subregions of the field's store accesses), created on first use and
// entered in the result. Element idx lives at position data.Pos(idx) of
// the backing slice: data is the shard's own cursor on the region's
// window, never shared with another shard, and every access has passed
// the containment check against a subregion the window holds.
type field struct {
	key     FieldKey
	kind    region.FieldKind
	data    geometry.Cursor
	scalars []float64
	indexes []int64
	ranges  []geometry.Interval
	stores  []geometry.IndexSet
	at      geometry.Cursor // over the union of stores, made on first write
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
	f := &field{key: k, kind: kind, data: reg.Window().Cursor()}
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

// Reads hit the task's own writes first, then the machine's data. The
// loads spell out the case of a field the task has not written, so that
// the cursor lookup inlines there.
func (f *field) scalar(idx int64) float64 {
	if f.wScalar != nil {
		if v, ok := f.wScalar.Get(idx); ok {
			return v
		}
	}
	return f.scalars[f.data.Pos(idx)]
}

func (f *field) index(idx int64) int64 {
	if f.wIndex != nil {
		if v, ok := f.wIndex.Get(idx); ok {
			return v
		}
	}
	return f.indexes[f.data.Pos(idx)]
}

// layout returns the cursor of f's runs, which they share.
func (f *field) layout() *geometry.Cursor {
	if f.at.Layout() == nil {
		f.at = geometry.NewLayout(geometry.UnionAll(f.stores)).Cursor()
	}
	return &f.at
}

// The runs of f's private writes and reduction buffer, made on first use.
func (s *shard) scalarRun(f *field) *Run[float64] {
	if f.wScalar == nil {
		f.wScalar = newRun[float64](f.layout())
		s.res.Scalars[f.key] = f.wScalar
	}
	return f.wScalar
}

func (s *shard) indexRun(f *field) *Run[int64] {
	if f.wIndex == nil {
		f.wIndex = newRun[int64](f.layout())
		s.res.Indexes[f.key] = f.wIndex
	}
	return f.wIndex
}

func (s *shard) reduceBuffer(f *field, op lang.ReduceOp) *ReduceBuffer {
	if f.buf == nil {
		f.buf = &ReduceBuffer{Op: string(op), Run: *newRun[float64](f.layout())}
		s.res.Reductions[f.key] = f.buf
	}
	return f.buf
}

// update folds v into the task's value of f at idx under op. idx lies in
// the run's domain, and its position serves both the read and the write.
func (s *shard) update(f *field, op byte, idx int64, v float64) {
	w := f.wScalar
	if w == nil {
		w = s.scalarRun(f)
	}
	p := w.at.Pos(idx)
	var old float64
	if w.has(p) {
		old = w.vals[p]
	} else {
		old = f.scalars[f.data.Pos(idx)]
	}
	w.set(p, reduce(op, old, v))
}

// The reduction operators as byte codes.
const (
	opSet byte = iota
	opAdd
	opMul
	opMax
	opMin
)

var reduceOps = map[lang.ReduceOp]byte{lang.OpSet: opSet, lang.OpAdd: opAdd, lang.OpMul: opMul, lang.OpMax: opMax, lang.OpMin: opMin}

// reduce is ir.ApplyReduce over byte codes.
func reduce(op byte, old, v float64) float64 {
	switch op {
	case opAdd:
		return old + v
	case opMul:
		return old * v
	case opMax:
		if v > old {
			return v
		}
		return old
	case opMin:
		if v < old {
			return v
		}
		return old
	}
	return v
}

// access is a statement's execution plan with this color's subregion of
// its partition, the slot of its index, whether its check is hoisted out
// of the iterations, and the interval of the subregion it last hit.
type access struct {
	*AccessInfo
	sub     geometry.IndexSet
	slot    int
	hoisted bool
	last    geometry.Interval
}

// contains reports whether idx lies in the access's subregion, trying
// the interval it last hit before a binary search over the rest.
func (a *access) contains(idx int64) bool {
	return idx >= a.last.Lo && idx < a.last.Hi || a.seek(idx)
}

func (a *access) seek(idx int64) bool {
	i, ok := a.sub.Locate(idx)
	if ok {
		a.last = a.sub.Intervals()[i]
	}
	return ok
}

func (s *shard) access(st ir.Stmt, slot int) (*access, error) {
	info := s.pl.Access[st]
	if info == nil {
		return nil, fmt.Errorf("%s: no access plan", st)
	}
	p, ok := s.parts[info.Sym]
	if !ok {
		return nil, fmt.Errorf("%s: unbound partition %q", st, info.Sym)
	}
	a := &access{AccessInfo: info, sub: p.Sub(s.color), slot: slot}
	s.accs = append(s.accs, a)
	return a, nil
}

// check is the containment check of an access index against the task's
// subregion.
func (s *shard) check(a *access, idx int64) error {
	if a.hoisted || idx >= a.last.Lo && idx < a.last.Hi {
		return nil
	}
	return s.checkRest(a, idx)
}

// checkRest is check past the interval the access last hit: a binary
// search, then the escape error.
func (s *shard) checkRest(a *access, idx int64) error {
	if a.seek(idx) {
		return nil
	}
	return fmt.Errorf("access %s[%d].%s escapes subregion %s[%d] — unsound partitioning",
		a.Region, idx, a.Field, a.Sym, s.color)
}

// at returns the index in a's slot, checked against a's subregion.
func (s *shard) at(st ir.Stmt, a *access) (int64, error) {
	k, err := s.index(st, a.slot)
	if err != nil {
		return 0, err
	}
	return k, s.check(a, k)
}

// operands returns a store's index and value, evaluated in that order,
// and st's error for the first that fails. The index of a store that is
// not guarded must pass its containment check too.
func (s *shard) operands(st ir.Stmt, a *access, x expr) (int64, float64, error) {
	k, err := s.index(st, a.slot)
	if err != nil {
		return 0, 0, err
	}
	v, err := x()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", st, err)
	}
	if !a.Guarded {
		err = s.check(a, k)
	}
	return k, v, err
}

// step is one compiled statement, expr one compiled scalar expression.
type (
	step func() error
	expr func() (float64, error)
)

func run(body []step) error {
	for _, st := range body {
		if err := st(); err != nil {
			return err
		}
	}
	return nil
}

func (s *shard) compile(stmts []ir.Stmt) ([]step, error) {
	out := make([]step, len(stmts))
	for i, st := range stmts {
		var err error
		if out[i], err = s.compileStmt(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *shard) compileStmt(src ir.Stmt) (step, error) {
	switch st := src.(type) {
	case *ir.Load:
		return s.load(st)
	case *ir.Store:
		return s.store(st)
	case *ir.LetScalar:
		dst, x := s.dest(st.Var), s.expr(st.Rhs)
		return func() error {
			v, err := x()
			if err != nil {
				return fmt.Errorf("%s: %w", st, err)
			}
			s.state[dst], s.f[dst] = scalarSlot, v
			return nil
		}, nil
	case *ir.Apply:
		arg, dst, fn := s.slot(st.Arg), s.dest(st.Var), s.m.Funcs[st.Func]
		if fn == nil {
			return func() error { return fmt.Errorf("%s: unknown index function", st) }, nil
		}
		return func() error {
			k, err := s.index(st, arg)
			if err != nil {
				return err
			}
			if v, ok := fn.Apply(k); ok {
				s.state[dst], s.i[dst] = indexSlot, v
			} else {
				s.state[dst] = invalidSlot
			}
			return nil
		}, nil
	case *ir.Alias:
		src, dst := s.slot(st.Src), s.dest(st.Var)
		return func() error {
			if s.state[src] == unbound {
				return fmt.Errorf("%s: unbound source", st)
			}
			s.state[dst], s.f[dst], s.i[dst] = s.state[src], s.f[src], s.i[src]
			return nil
		}, nil
	case *ir.Inner:
		return s.inner(st)
	case *ir.IfIn:
		return s.ifIn(st)
	case *ir.IfCmp:
		return s.ifCmp(st)
	}
	return nil, fmt.Errorf("unknown statement %T", src)
}

// resolveLoad resolves a load's field and access.
func (s *shard) resolveLoad(st *ir.Load, idx int) (*field, *access, error) {
	f, err := s.field(st, st.Region, st.Field)
	if err != nil {
		return nil, nil, err
	}
	if f.kind == region.RangeField {
		return nil, nil, fmt.Errorf("%s: cannot load range field", st)
	}
	a, err := s.access(st, idx)
	return f, a, err
}

func (s *shard) load(st *ir.Load) (step, error) {
	idx, dst := s.slot(st.Idx), s.dest(st.Var)
	f, a, err := s.resolveLoad(st, idx)
	if err != nil {
		return nil, err
	}
	if f.kind == region.ScalarField {
		return func() error {
			k, err := s.at(st, a)
			if err != nil {
				return err
			}
			if f.wScalar == nil {
				s.f[dst] = f.scalars[f.data.Pos(k)]
			} else {
				s.f[dst] = f.scalar(k)
			}
			s.state[dst] = scalarSlot
			return nil
		}, nil
	}
	return func() error {
		k, err := s.at(st, a)
		if err != nil {
			return err
		}
		var v int64
		if f.wIndex == nil {
			v = f.indexes[f.data.Pos(k)]
		} else {
			v = f.index(k)
		}
		if v < 0 {
			s.state[dst] = invalidSlot
		} else {
			s.state[dst], s.i[dst] = indexSlot, v
		}
		return nil
	}, nil
}

// resolveStore resolves a store's field, access and reduction operator,
// and enters its subregion in the field's store union.
func (s *shard) resolveStore(st *ir.Store, idx int) (*field, *access, byte, error) {
	f, err := s.field(st, st.Region, st.Field)
	if err != nil {
		return nil, nil, 0, err
	}
	a, err := s.access(st, idx)
	if err != nil {
		return nil, nil, 0, err
	}
	if f.kind == region.RangeField || (a.Guarded || a.Buffered) && f.kind != region.ScalarField {
		return nil, nil, 0, fmt.Errorf("%s: cannot store to %s field %s", st, f.kind, st.Field)
	}
	f.stores = append(f.stores, a.sub)
	op, ok := reduceOps[st.Op]
	switch {
	case !ok:
		return nil, nil, 0, fmt.Errorf("%s: unknown reduction operator %q", st, st.Op)
	case op == opSet && a.Buffered:
		return nil, nil, 0, fmt.Errorf("%s: reduction operator %q has no identity", st, st.Op)
	}
	return f, a, op, nil
}

// contribute folds v into the task's reduction buffer for f at idx under
// op, whose byte code is code: an element not yet present starts at
// ident, op's identity.
func (s *shard) contribute(f *field, op lang.ReduceOp, code byte, ident float64, idx int64, v float64) {
	b := f.buf
	if b == nil {
		b = s.reduceBuffer(f, op)
	}
	p := b.at.Pos(idx)
	old := ident
	if b.has(p) {
		old = b.vals[p]
	}
	b.set(p, reduce(code, old, v))
}

func (s *shard) store(st *ir.Store) (step, error) {
	idx, x := s.slot(st.Idx), s.expr(st.Rhs)
	f, a, op, err := s.resolveStore(st, idx)
	if err != nil {
		return nil, err
	}
	switch {
	case a.Guarded:
		// §5.1: apply only when this task owns the target; the disjoint
		// complete target partition guarantees exactly-once across the
		// launch.
		return func() error {
			k, v, err := s.operands(st, a, x)
			if err == nil && (a.hoisted || a.contains(k)) {
				s.update(f, op, k, v)
			}
			return err
		}, nil
	case a.Buffered:
		ident := ir.ReduceIdentity(string(st.Op))
		return func() error {
			k, v, err := s.operands(st, a, x)
			if err == nil {
				s.contribute(f, st.Op, op, ident, k, v)
			}
			return err
		}, nil
	case f.kind == region.IndexField:
		// A plain store to a pointer field takes the raw value.
		return func() error {
			k, v, err := s.operands(st, a, x)
			if err == nil {
				s.indexRun(f).put(k, int64(v))
			}
			return err
		}, nil
	case op == opSet:
		return func() error {
			k, v, err := s.operands(st, a, x)
			if err == nil {
				s.scalarRun(f).put(k, v)
			}
			return err
		}, nil
	}
	// A centered reduction: task-private read-modify-write.
	return func() error {
		k, v, err := s.operands(st, a, x)
		if err == nil {
			s.update(f, op, k, v)
		}
		return err
	}, nil
}

func (s *shard) inner(st *ir.Inner) (step, error) {
	idx, dst := s.slot(st.Idx), s.dest(st.Var)
	f, err := s.field(st, st.RangeRegion, st.RangeField)
	if err != nil {
		return nil, err
	}
	if f.kind != region.RangeField {
		return nil, fmt.Errorf("%s: %s is a %s field, not a range field", st, st.RangeField, f.kind)
	}
	a, err := s.access(st, idx)
	if err != nil {
		return nil, err
	}
	body, err := s.compile(st.Body)
	if err != nil {
		return nil, err
	}
	return func() error {
		k, err := s.at(st, a)
		if err != nil {
			return err
		}
		iv := f.ranges[f.data.Pos(k)]
		for j := iv.Lo; j < iv.Hi; j++ {
			s.state[dst], s.i[dst] = indexSlot, j
			if err := run(body); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// branches compiles the two branches of an if statement.
func (s *shard) branches(then, els []ir.Stmt) ([]step, []step, error) {
	t, err := s.compile(then)
	if err != nil {
		return nil, nil, err
	}
	e, err := s.compile(els)
	return t, e, err
}

// space returns what membership in an IfIn's Space tests: a region is
// [0, size), a partition its union; size is -1 and in nil if Space is
// unknown.
func (s *shard) space(st *ir.IfIn) (size int64, in func(int64) bool) {
	if reg, ok := s.m.Regions[st.Space]; ok {
		return reg.Size(), nil
	}
	if p, ok := s.m.Partitions[st.Space]; ok {
		return -1, p.UnionAll().Contains
	}
	return -1, nil
}

func (s *shard) ifIn(st *ir.IfIn) (step, error) {
	idx := s.slot(st.Idx)
	size, in := s.space(st)
	then, els, err := s.branches(st.Then, st.Else)
	if err != nil {
		return nil, err
	}
	return func() error {
		var k int64 // a scalar tests 0
		switch s.state[idx] {
		case unbound:
			return fmt.Errorf("%s: unbound index", st)
		case invalidSlot:
			return run(els)
		case indexSlot:
			k = s.i[idx]
		}
		switch {
		case size >= 0:
			if k >= 0 && k < size {
				return run(then)
			}
		case in == nil:
			return fmt.Errorf("%s: unknown space", st)
		case in(k):
			return run(then)
		}
		return run(els)
	}, nil
}

func (s *shard) ifCmp(st *ir.IfCmp) (step, error) {
	x, y := s.expr(st.L), s.expr(st.R)
	then, els, err := s.branches(st.Then, st.Else)
	if err != nil {
		return nil, err
	}
	if st.Op != "==" && st.Op != "!=" {
		return func() error {
			if _, _, err := both(x, y); err != nil {
				return err
			}
			return fmt.Errorf("%s: unknown comparison", st)
		}, nil
	}
	eq := st.Op == "=="
	return func() error {
		l, r, err := both(x, y)
		if err != nil {
			return err
		}
		if (l == r) == eq {
			return run(then)
		}
		return run(els)
	}, nil
}

// both evaluates x, then y.
func both(x, y expr) (float64, float64, error) {
	l, err := x()
	if err != nil {
		return 0, 0, err
	}
	r, err := y()
	return l, r, err
}

func (s *shard) expr(e ir.ScalarExpr) expr {
	switch x := e.(type) {
	case ir.Const:
		return func() (float64, error) { return x.V, nil }
	case ir.VarExpr:
		slot := s.slot(x.Name)
		return func() (float64, error) {
			if s.state[slot] == scalarSlot {
				return s.f[slot], nil
			}
			return s.coerce(slot)
		}
	case ir.CallExpr:
		seed, args := ir.OpaqueSeed(x.Func), make([]expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = s.expr(a)
		}
		return func() (float64, error) {
			acc := seed
			for i, a := range args {
				v, err := a()
				if err != nil {
					return 0, err
				}
				acc = ir.OpaqueMix(acc, i, v)
			}
			return ir.OpaqueValue(acc), nil
		}
	case ir.BinExpr:
		l, r := s.expr(x.L), s.expr(x.R)
		switch x.Op {
		case "+":
			return func() (float64, error) { a, b, err := both(l, r); return a + b, err }
		case "-":
			return func() (float64, error) { a, b, err := both(l, r); return a - b, err }
		case "*":
			return func() (float64, error) { a, b, err := both(l, r); return a * b, err }
		case "/":
			return func() (float64, error) {
				a, b, err := both(l, r)
				if b == 0 {
					return 0, err
				}
				return a / b, err
			}
		}
		return func() (float64, error) {
			if _, _, err := both(l, r); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("unknown operator %q", x.Op)
		}
	}
	name := fmt.Sprintf("%T", e)
	return func() (float64, error) { return 0, fmt.Errorf("unknown scalar expression %s", name) }
}
