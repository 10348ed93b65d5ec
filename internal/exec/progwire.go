package exec

import (
	"errors"
	"slices"
	"sort"
	"strings"

	"autopart/internal/geometry"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// Program wire format: the serialized form of an executable Program that
// the coordinator ships to every worker process during bootstrap. It is
// built from wire.go's codec (little-endian, length-prefixed counts,
// bounds-checked reads) and inherits its safety contract: DecodeProgram
// never panics on corrupt input, never allocates more than the input's
// own size allows, rejects trailing bytes, and rejects any version byte
// it does not speak.
//
// Layout (one blob, no outer frame — the control plane frames it):
//
//	u8  progWireVersion
//	u32 region count, then per region (sorted by name):
//	    str name, u64 size, and per field kind (sorted field names):
//	    u32 count { str field, size × payload }
//	u32 func count { str name, u8 kind, kind-specific body }
//	u32 extern partition count { partition }   (machine.Partitions)
//	u32 partition count { str sym, partition } (prog.Parts)
//	u32 owner count { str region, str field, partition }
//	u32 task count { launch, parallel loop }
//
// A partition is its name, its parent region's name, and its subregion
// index sets; decode re-parents it onto the already-decoded region and
// verifies every subregion stays inside the parent's index space (the
// invariant region.NewPartition would otherwise enforce by panicking).
// A parallel loop's Access map is keyed by statement pointers, which
// cannot cross the wire: statements are numbered by pre-order walk of
// the loop body, and access entries are written as (index, info) pairs
// re-associated after the statement tree is rebuilt.
const progWireVersion = 1

// errProgWireVersion is wrapped by decode errors caused by a version
// byte mismatch, so callers can distinguish "foreign version" from
// "corrupt blob".
var errProgWireVersion = errors.New("exec: progwire: version mismatch")

// keyed walks a map in canonical order: a count, then elem once per
// entry. Encoding visits the keys ascending under cmp, so the same map
// always produces the same bytes; decoding inserts each entry under the
// key elem filled in and refuses a repeated key.
func keyed[K comparable, V any](c *codec, m map[K]V, what string, cmp func(a, b K) int, elem func(*K, *V)) {
	var keys []K
	if !c.dec {
		for k := range m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, cmp)
	}
	n := len(keys)
	c.list(&n, 1, func(i int) {
		var k K
		var v V
		if !c.dec {
			k, v = keys[i], m[keys[i]]
		}
		if elem(&k, &v); !c.dec || c.err != nil {
			return
		}
		if _, dup := m[k]; dup {
			c.failf("duplicate %s %v", what, k)
			return
		}
		m[k] = v
	})
}

func cmpFieldKey(a, b sim.FieldKey) int {
	if d := strings.Compare(a.Region, b.Region); d != 0 {
		return d
	}
	return strings.Compare(a.Field, b.Field)
}

// program is the whole-blob layout. Decoding fills a prog whose maps
// the caller has made.
func (c *codec) program(prog *Program) {
	c.version(progWireVersion, progWireVersion, errProgWireVersion)
	m := prog.Machine
	keyed(c, m.Regions, "region", strings.Compare, func(name *string, r **region.Region) {
		if c.region(r); c.dec && c.err == nil {
			*name = (*r).Name()
		}
	})
	keyed(c, m.Funcs, "index function", strings.Compare, func(name *string, f *geometry.IndexMap) {
		c.str(name)
		c.indexMap(*name, f)
	})
	keyed(c, m.Partitions, "extern partition", strings.Compare, func(name *string, p **region.Partition) {
		if c.partition(p, m); c.dec && c.err == nil {
			*name = (*p).Name()
		}
	})
	keyed(c, prog.Parts, "partition symbol", strings.Compare, func(sym *string, p **region.Partition) {
		c.str(sym)
		c.partition(p, m)
	})
	keyed(c, prog.Owners.Owners, "owner for", cmpFieldKey, func(fk *sim.FieldKey, p **region.Partition) {
		c.strs(&fk.Region, &fk.Field)
		c.partition(p, m)
	})
	seq(c, &prog.Plan.Tasks, 1, func(t *runtime.Task) {
		c.launch(&t.Launch)
		c.parallelLoop(&t.Loop)
	})
}

// EncodeProgram serializes prog for distribution to worker processes.
// The encoding is deterministic: maps are written in sorted key order,
// so the same program always produces the same bytes.
func EncodeProgram(prog *Program) ([]byte, error) {
	if prog == nil || prog.Machine == nil || prog.Plan == nil || prog.Owners == nil {
		return nil, errors.New("exec: progwire: incomplete program")
	}
	var c codec
	c.program(prog)
	return c.encoded()
}

// DecodeProgram rebuilds a Program from EncodeProgram's output. The
// result shares nothing with the encoder's program: regions, partitions,
// and the plan are freshly built, ready for a worker's RunNode.
func DecodeProgram(data []byte) (*Program, error) {
	prog := &Program{Machine: ir.NewMachine(), Plan: &runtime.Plan{}, Parts: map[string]*region.Partition{}, Owners: sim.NewState()}
	c := codec{dec: true, buf: data}
	c.program(prog)
	if err := c.done("program"); err != nil {
		return nil, err
	}
	return prog, nil
}

// region is a name, a size, and the fields grouped by kind (scalar,
// index, range), each group sorted by field name and each field exactly
// size elements long — no per-field count, so the alloc guard is the
// region size itself checked against the remaining input.
func (c *codec) region(rp **region.Region) {
	var name string
	var size int64
	var fields [region.RangeField + 1][]string
	if !c.dec {
		reg := *rp
		name, size = reg.Name(), reg.Size()
		for _, f := range reg.FieldNames() {
			kind, _ := reg.FieldKindOf(f)
			fields[kind] = append(fields[kind], f)
		}
	}
	c.str(&name)
	c.i64(&size)
	if c.dec {
		if c.err == nil && size < 0 {
			c.failf("region %q has negative size", name)
		}
		if c.err != nil {
			return
		}
		*rp = region.New(name, size)
	}
	reg := *rp
	for kind := region.ScalarField; kind <= region.RangeField; kind++ {
		elemSize := 8
		if kind == region.RangeField {
			elemSize = 16
		}
		seq(c, &fields[kind], 1, func(f *string) {
			if c.str(f); c.dec {
				if c.err == nil && (*f == "" || reg.HasField(*f)) {
					c.failf("region %q: bad or duplicate field %q", name, *f)
				}
				if c.err == nil && size > int64(c.remaining()/elemSize) {
					c.failf("region %q field %q: %d elements exceed frame remainder %d", name, *f, size, c.remaining())
				}
				if c.err != nil {
					return
				}
				switch kind {
				case region.ScalarField:
					reg.AddScalarField(*f)
				case region.IndexField:
					reg.AddIndexField(*f)
				case region.RangeField:
					reg.AddRangeField(*f)
				}
			}
			switch kind {
			case region.ScalarField:
				c.f64vals(reg.Scalar(*f))
			case region.IndexField:
				c.i64vals(reg.Index(*f))
			case region.RangeField:
				c.ivvals(reg.Ranges(*f))
			}
		})
	}
}

// Index function kinds on the wire.
const (
	funcIdentity = iota
	funcAffine
	funcTable
)

// indexMap is a kind byte plus the kind's parameters. Index maps are
// values, so each case edits a copy and a decode stores it back.
func (c *codec) indexMap(name string, f *geometry.IndexMap) {
	var kind byte
	if !c.dec {
		switch (*f).(type) {
		case geometry.IdentityMap:
			kind = funcIdentity
		case geometry.AffineMap:
			kind = funcAffine
		case geometry.TableMap:
			kind = funcTable
		default:
			c.failf("index function %q has unserializable type %T", name, *f)
			return
		}
	}
	c.u8(&kind)
	var out geometry.IndexMap
	switch kind {
	case funcIdentity:
		out = geometry.IdentityMap{}
	case funcAffine:
		x, _ := (*f).(geometry.AffineMap)
		c.str(&x.Name)
		c.i64(&x.Stride)
		c.i64(&x.Offset)
		c.i64(&x.Modulo)
		clamped := x.Clamp != nil
		if c.flag(&clamped); clamped {
			if c.dec {
				x.Clamp = &geometry.Interval{}
			}
			c.iv(x.Clamp)
		}
		out = x
	case funcTable:
		x, _ := (*f).(geometry.TableMap)
		c.str(&x.Name)
		c.i64s(&x.Table)
		out = x
	default:
		c.failf("unknown index function kind %d", kind)
	}
	if c.dec {
		*f = out
	}
}

// partition is a name, the parent region's name, and the subregion
// sets. Decoding re-parents it onto m's region of the recorded name,
// rejecting (rather than panicking on) subregions that escape the
// parent's index space.
func (c *codec) partition(pp **region.Partition, m *ir.Machine) {
	var name, parentName string
	var subs []geometry.IndexSet
	if !c.dec {
		p := *pp
		if p == nil || p.Parent() == nil {
			c.failf("partition without a parent region")
			return
		}
		name, parentName, subs = p.Name(), p.Parent().Name(), p.Subs()
	}
	c.strs(&name, &parentName)
	seq(c, &subs, 4, c.set)
	if !c.dec || c.err != nil {
		return
	}
	parent := m.Regions[parentName]
	if parent == nil {
		c.failf("partition %q references unknown region %q", name, parentName)
		return
	}
	space := parent.Space()
	for i, s := range subs {
		if !s.SubsetOf(space) {
			c.failf("partition %q: subregion %d escapes region %q", name, i, parentName)
			return
		}
	}
	*pp = region.NewPartition(name, parent, subs)
}

// launch travels fully serialized (not re-derived from the loop): apps
// adjust launches after planning, and those edits must reach workers.
func (c *codec) launch(lp **runtime.Launch) {
	if c.dec {
		*lp = &runtime.Launch{}
	} else if *lp == nil {
		c.failf("task without a launch")
		return
	}
	l := *lp
	c.strs(&l.Name, &l.IterSym, &l.WorkSym)
	c.f64(&l.WorkPerElement)
	seq(c, &l.Reqs, 1, func(req *runtime.Requirement) {
		c.str(&req.Region)
		seq(c, &req.Fields, 2, c.str)
		enum(c, &req.Priv, runtime.Reduce, "privilege")
		c.strs(&req.Sym, &req.ReduceOp, &req.PrivateSym, &req.TouchedSym)
		c.flag(&req.Guarded)
	})
}

// walkStmts visits the statement tree in pre-order, the traversal both
// sides of the wire use to number statements for the Access map.
func walkStmts(stmts []ir.Stmt, fn func(ir.Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch st := s.(type) {
		case *ir.Inner:
			walkStmts(st.Body, fn)
		case *ir.IfIn:
			walkStmts(st.Then, fn)
			walkStmts(st.Else, fn)
		case *ir.IfCmp:
			walkStmts(st.Then, fn)
			walkStmts(st.Else, fn)
		}
	}
}

// accessEntry is one Access-map entry as it travels: keyed by the
// statement's pre-order index instead of its pointer.
type accessEntry struct {
	idx  int
	info *rewrite.AccessInfo
}

func (c *codec) parallelLoop(plp **rewrite.ParallelLoop) {
	if c.dec {
		*plp = &rewrite.ParallelLoop{Loop: &ir.Loop{}, Access: map[ir.Stmt]*rewrite.AccessInfo{}}
	} else if *plp == nil || (*plp).Loop == nil {
		c.failf("task without a loop")
		return
	}
	pl := *plp
	c.str(&pl.IterSym)
	c.flag(&pl.Relaxed)
	c.strs(&pl.Loop.Var, &pl.Loop.Region)
	c.stmts(&pl.Loop.Stmts)
	if c.err != nil {
		return
	}

	var order []ir.Stmt
	walkStmts(pl.Loop.Stmts, func(s ir.Stmt) { order = append(order, s) })
	// Encoding writes the entries in index order for determinism.
	var entries []accessEntry
	if !c.dec {
		index := make(map[ir.Stmt]int, len(order))
		for i, s := range order {
			index[s] = i
		}
		for s, info := range pl.Access {
			idx, ok := index[s]
			if !ok {
				c.failf("access entry for statement outside the loop body (%s)", s)
				return
			}
			entries = append(entries, accessEntry{idx, info})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
	}
	seq(c, &entries, 4, func(e *accessEntry) {
		if c.i32(&e.idx); c.dec {
			e.info = &rewrite.AccessInfo{}
		}
		info := e.info
		c.strs(&info.Sym, (*string)(&info.Op), &info.Region, &info.Field, &info.PrivateSym)
		enum(c, &info.Kind, infer.RangeAccess, "access kind")
		c.flags(&info.Centered, &info.Guarded, &info.Buffered)
		if !c.dec || c.err != nil {
			return
		}
		if e.idx < 0 || e.idx >= len(order) {
			c.failf("access entry for statement %d of %d", e.idx, len(order))
		} else if _, dup := pl.Access[order[e.idx]]; dup {
			c.failf("duplicate access entry for statement %d", e.idx)
		} else {
			pl.Access[order[e.idx]] = info
		}
	})
}

// Statement tags on the wire.
const (
	stmtLoad = iota + 1
	stmtStore
	stmtApply
	stmtAlias
	stmtInner
	stmtIfIn
	stmtIfCmp
	stmtLet
)

func stmtTag(s ir.Stmt) byte {
	switch s.(type) {
	case *ir.Load:
		return stmtLoad
	case *ir.Store:
		return stmtStore
	case *ir.Apply:
		return stmtApply
	case *ir.Alias:
		return stmtAlias
	case *ir.Inner:
		return stmtInner
	case *ir.IfIn:
		return stmtIfIn
	case *ir.IfCmp:
		return stmtIfCmp
	case *ir.LetScalar:
		return stmtLet
	}
	return 0
}

// stmtAs returns the *T behind *s: the statement being encoded (whose
// tag already established its type), or a fresh one a decode stores in
// *s and then fills in.
func stmtAs[T any, P interface {
	*T
	ir.Stmt
}](c *codec, s *ir.Stmt) P {
	if c.dec {
		*s = P(new(T))
	}
	return (*s).(P)
}

func (c *codec) srcPos(p *lang.Pos) {
	c.i32(&p.Line)
	c.i32(&p.Col)
}

// stmts is a statement list, one nesting level down. A statement is at
// least tag + pos = 9 bytes.
func (c *codec) stmts(p *[]ir.Stmt) {
	c.nest(func() { seq(c, p, 9, c.stmt) })
}

// stmt is a tag byte, the source position, the statement's strings, and
// then its nested expressions and bodies.
func (c *codec) stmt(s *ir.Stmt) {
	var tag byte
	if !c.dec {
		if tag = stmtTag(*s); tag == 0 {
			c.failf("unserializable statement type %T", *s)
			return
		}
	}
	c.u8(&tag)
	switch tag {
	case stmtLoad:
		st := stmtAs[ir.Load](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Var, &st.Region, &st.Field, &st.Idx)
	case stmtStore:
		st := stmtAs[ir.Store](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Region, &st.Field, &st.Idx, (*string)(&st.Op))
		c.expr(&st.Rhs)
	case stmtApply:
		st := stmtAs[ir.Apply](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Var, &st.Func, &st.Arg)
	case stmtAlias:
		st := stmtAs[ir.Alias](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Var, &st.Src)
	case stmtInner:
		st := stmtAs[ir.Inner](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Var, &st.RangeRegion, &st.RangeField, &st.Idx)
		c.stmts(&st.Body)
	case stmtIfIn:
		st := stmtAs[ir.IfIn](c, s)
		c.srcPos(&st.Pos)
		c.strs(&st.Idx, &st.Space)
		c.stmts(&st.Then)
		c.stmts(&st.Else)
	case stmtIfCmp:
		st := stmtAs[ir.IfCmp](c, s)
		c.srcPos(&st.Pos)
		c.str(&st.Op)
		c.expr(&st.L)
		c.expr(&st.R)
		c.stmts(&st.Then)
		c.stmts(&st.Else)
	case stmtLet:
		st := stmtAs[ir.LetScalar](c, s)
		c.srcPos(&st.Pos)
		c.str(&st.Var)
		c.expr(&st.Rhs)
	default:
		c.failf("unknown statement tag %d", tag)
	}
}

// Scalar expression tags on the wire.
const (
	exprConst = iota + 1
	exprVar
	exprCall
	exprBin
)

// expr is a tag byte plus the kind's operands, one nesting level down.
// Expressions are values, so each case edits a copy and a decode stores
// it back.
func (c *codec) expr(e *ir.ScalarExpr) {
	c.nest(func() {
		var tag byte
		if !c.dec {
			switch (*e).(type) {
			case ir.Const:
				tag = exprConst
			case ir.VarExpr:
				tag = exprVar
			case ir.CallExpr:
				tag = exprCall
			case ir.BinExpr:
				tag = exprBin
			default:
				c.failf("unserializable scalar expression type %T", *e)
				return
			}
		}
		c.u8(&tag)
		var out ir.ScalarExpr
		switch tag {
		case exprConst:
			x, _ := (*e).(ir.Const)
			c.f64(&x.V)
			out = x
		case exprVar:
			x, _ := (*e).(ir.VarExpr)
			c.str(&x.Name)
			out = x
		case exprCall:
			x, _ := (*e).(ir.CallExpr)
			c.str(&x.Func)
			seq(c, &x.Args, 1, c.expr)
			out = x
		case exprBin:
			x, _ := (*e).(ir.BinExpr)
			c.str(&x.Op)
			c.expr(&x.L)
			c.expr(&x.R)
			out = x
		default:
			c.failf("unknown expression tag %d", tag)
		}
		if c.dec {
			*e = out
		}
	})
}

// nodeResult is the worker → coordinator report: the node id, per step
// and launch the node's statistics and timings (88 bytes a launch), and
// the final owned pieces as length-framed data messages.
func (c *codec) nodeResult(nr *NodeResult) {
	c.version(progWireVersion, progWireVersion, errProgWireVersion)
	c.i32(&nr.ID)
	if !c.dec && len(nr.Times) != len(nr.Stats) {
		c.failf("node result has %d stat steps but %d timing steps", len(nr.Stats), len(nr.Times))
	}
	steps := len(nr.Stats)
	c.list(&steps, 4, func(step int) {
		var launches int
		if c.dec {
			nr.Stats, nr.Times = append(nr.Stats, nil), append(nr.Times, nil)
		} else if launches = len(nr.Stats[step]); len(nr.Times[step]) != launches {
			c.failf("node result step %d has %d stat launches but %d timing launches", step, launches, len(nr.Times[step]))
			return
		}
		if c.count(&launches, 88); c.dec {
			nr.Stats[step], nr.Times[step] = make([]sim.NodeStats, launches), make([]NodeTiming, launches)
		}
		for li := 0; li < launches && c.err == nil; li++ {
			ns, nt := &nr.Stats[step][li], &nr.Times[step][li]
			c.f64(&ns.ComputeUnits)
			c.f64(&ns.BufferElems)
			c.f64(&ns.BytesIn)
			c.f64(&ns.BytesOut)
			c.wide(&ns.MsgsIn)
			c.wide(&ns.MsgsOut)
			c.wide(&ns.FragsIn)
			c.wide(&ns.FragsOut)
			c.i64(&nt.WallNS)
			c.i64(&nt.ComputeNS)
			c.i64(&nt.OverlapNS)
		}
	})
	seq(c, &nr.final, 4, func(m *message) {
		c.framed("result piece", func() { c.message(m) })
	})
}

// EncodeNodeResult serializes one node's share of a run's outcome for
// the worker → coordinator result frame.
func EncodeNodeResult(nr *NodeResult) ([]byte, error) {
	var c codec
	c.nodeResult(nr)
	return c.encoded()
}

// DecodeNodeResult parses EncodeNodeResult's output.
func DecodeNodeResult(data []byte) (*NodeResult, error) {
	nr := &NodeResult{}
	c := codec{dec: true, buf: data}
	c.nodeResult(nr)
	if err := c.done("node result"); err != nil {
		return nil, err
	}
	return nr, nil
}
