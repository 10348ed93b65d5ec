package ir

import (
	"fmt"
	"strconv"

	"autopart/internal/lang"
)

// VarKind classifies a normalized variable.
type VarKind int

// Variable kinds.
const (
	// ScalarVar holds a float64 value.
	ScalarVar VarKind = iota
	// IndexVar holds an index into a specific region.
	IndexVar
)

// VarInfo describes a variable bound in a normalized loop.
type VarInfo struct {
	Kind VarKind
	// Region is the indexed region for IndexVar.
	Region string
}

// LetScalar is `Var = Rhs` for a scalar-valued right-hand side. It has no
// partitioning effect but is required to execute loops.
type LetScalar struct {
	Var string
	Rhs ScalarExpr
	Pos lang.Pos
}

func (*LetScalar) stmtNode() {}

// Position implements Stmt.
func (s *LetScalar) Position() lang.Pos { return s.Pos }

func (s *LetScalar) String() string { return fmt.Sprintf("%s = %s", s.Var, s.Rhs) }

// Normalizer converts parsed loops into normalized IR, performing the
// kind checking that decides which expressions are index computations.
type Normalizer struct {
	prog *lang.Program
	vars map[string]VarInfo
	tmp  int
}

// NormalizeProgram normalizes every top-level loop of a parsed program.
func NormalizeProgram(prog *lang.Program) ([]*Loop, error) {
	out := make([]*Loop, 0, len(prog.Loops))
	for i, l := range prog.Loops {
		nl, err := NormalizeLoop(prog, l)
		if err != nil {
			return nil, fmt.Errorf("loop %d (for %s in %s): %w", i, l.Var, l.Region, err)
		}
		out = append(out, nl)
	}
	return out, nil
}

// NormalizeLoop normalizes a single loop.
func NormalizeLoop(prog *lang.Program, l *lang.Loop) (*Loop, error) {
	n := &Normalizer{prog: prog, vars: map[string]VarInfo{}}
	n.vars[l.Var] = VarInfo{Kind: IndexVar, Region: l.Region}
	var stmts []Stmt
	if err := n.block(l.Body, &stmts); err != nil {
		return nil, err
	}
	return &Loop{Var: l.Var, Region: l.Region, Stmts: stmts}, nil
}

func (n *Normalizer) fresh() string {
	n.tmp++
	// '%' cannot appear in source identifiers, so temporaries never
	// collide with user variables.
	return "%t" + strconv.Itoa(n.tmp)
}

func (n *Normalizer) block(stmts []lang.Stmt, out *[]Stmt) error {
	for _, s := range stmts {
		if err := n.stmt(s, out); err != nil {
			return err
		}
	}
	return nil
}

func (n *Normalizer) stmt(s lang.Stmt, out *[]Stmt) error {
	switch st := s.(type) {
	case *lang.VarAssign:
		return n.varAssign(st, out)

	case *lang.FieldAssign:
		idx, err := n.indexExpr(st.Access.Index, out)
		if err != nil {
			return err
		}
		if err := n.checkIndexInto(idx, st.Access.Region, st.Access.Pos); err != nil {
			return err
		}
		decl, _ := n.prog.RegionByName(st.Access.Region)
		field, _ := decl.FieldByName(st.Access.Field)
		if field.Kind == lang.RangeKind {
			return errorAt("N001", st.Pos, "cannot assign to range field %s", st.Access)
		}
		rhs, err := n.scalarExpr(st.Rhs, out)
		if err != nil {
			return err
		}
		*out = append(*out, &Store{
			Region: st.Access.Region, Field: st.Access.Field,
			Idx: idx, Op: st.Op, Rhs: rhs, Pos: st.Pos,
		})
		return nil

	case *lang.InnerFor:
		idx, err := n.indexExpr(st.Range.Index, out)
		if err != nil {
			return err
		}
		if err := n.checkIndexInto(idx, st.Range.Region, st.Pos); err != nil {
			return err
		}
		decl, _ := n.prog.RegionByName(st.Range.Region)
		field, ok := decl.FieldByName(st.Range.Field)
		if !ok || field.Kind != lang.RangeKind {
			return errorAt("N002", st.Pos, "inner loop range %s is not a range field", st.Range)
		}
		n.vars[st.Var] = VarInfo{Kind: IndexVar, Region: field.Target}
		inner := &Inner{
			Var: st.Var, RangeRegion: st.Range.Region,
			RangeField: st.Range.Field, Idx: idx, Pos: st.Pos,
		}
		if err := n.block(st.Body, &inner.Body); err != nil {
			return err
		}
		*out = append(*out, inner)
		return nil

	case *lang.If:
		switch cond := st.Cond.(type) {
		case *lang.InTest:
			idx, err := n.indexExpr(cond.Index, out)
			if err != nil {
				return err
			}
			guard := &IfIn{Idx: idx, Space: cond.Space, Pos: st.Pos}
			if err := n.block(st.Then, &guard.Then); err != nil {
				return err
			}
			if err := n.block(st.Else, &guard.Else); err != nil {
				return err
			}
			*out = append(*out, guard)
			return nil
		case *lang.Compare:
			l, err := n.scalarExpr(cond.L, out)
			if err != nil {
				return err
			}
			r, err := n.scalarExpr(cond.R, out)
			if err != nil {
				return err
			}
			guard := &IfCmp{Op: cond.Op, L: l, R: r, Pos: st.Pos}
			if err := n.block(st.Then, &guard.Then); err != nil {
				return err
			}
			if err := n.block(st.Else, &guard.Else); err != nil {
				return err
			}
			*out = append(*out, guard)
			return nil
		default:
			return errorAt("N003", st.Pos, "unsupported condition")
		}

	default:
		return errorAt("N004", s.StmtPos(), "unsupported statement %T", s)
	}
}

func (n *Normalizer) varAssign(st *lang.VarAssign, out *[]Stmt) error {
	// Try to interpret the right-hand side as an index computation first;
	// if it is, the variable becomes an index variable usable in region
	// subscripts.
	if info, ok := n.tryIndexRhs(st, out); ok {
		n.vars[st.Name] = info
		return nil
	}
	rhs, err := n.scalarExpr(st.Rhs, out)
	if err != nil {
		return err
	}
	n.vars[st.Name] = VarInfo{Kind: ScalarVar}
	*out = append(*out, &LetScalar{Var: st.Name, Rhs: rhs, Pos: st.Pos})
	return nil
}

// tryIndexRhs recognizes the three index-producing right-hand sides of
// Algorithm 1 (y = x, y = f(x), y = S[x].f for an index field) and emits
// the corresponding normalized statement directly into the target
// variable.
func (n *Normalizer) tryIndexRhs(st *lang.VarAssign, out *[]Stmt) (VarInfo, bool) {
	switch rhs := st.Rhs.(type) {
	case *lang.VarRef:
		if info, ok := n.vars[rhs.Name]; ok && info.Kind == IndexVar {
			*out = append(*out, &Alias{Var: st.Name, Src: rhs.Name, Pos: st.Pos})
			return info, true
		}
	case *lang.Call:
		if decl, ok := n.prog.FuncByName(rhs.Func); ok && len(rhs.Args) == 1 {
			arg, err := n.indexExpr(rhs.Args[0], out)
			if err != nil {
				return VarInfo{}, false
			}
			if !n.prog.SameSpace(n.vars[arg].Region, decl.From) {
				return VarInfo{}, false
			}
			*out = append(*out, &Apply{Var: st.Name, Func: rhs.Func, Arg: arg, Pos: st.Pos})
			return VarInfo{Kind: IndexVar, Region: decl.To}, true
		}
	case *lang.FieldAccess:
		decl, ok := n.prog.RegionByName(rhs.Region)
		if !ok {
			return VarInfo{}, false
		}
		field, ok := decl.FieldByName(rhs.Field)
		if !ok || field.Kind != lang.IndexKind {
			return VarInfo{}, false
		}
		idx, err := n.indexExpr(rhs.Index, out)
		if err != nil {
			return VarInfo{}, false
		}
		if err := n.checkIndexInto(idx, rhs.Region, rhs.Pos); err != nil {
			return VarInfo{}, false
		}
		*out = append(*out, &Load{Var: st.Name, Region: rhs.Region, Field: rhs.Field, Idx: idx, Pos: st.Pos})
		return VarInfo{Kind: IndexVar, Region: field.Target}, true
	}
	return VarInfo{}, false
}

// indexExpr normalizes an expression used as a region subscript to a
// variable name, emitting Load/Apply temporaries as needed.
func (n *Normalizer) indexExpr(e lang.Expr, out *[]Stmt) (string, error) {
	switch x := e.(type) {
	case *lang.VarRef:
		info, ok := n.vars[x.Name]
		if !ok {
			return "", errorAt("N005", x.Pos, "use of undefined variable %q", x.Name)
		}
		if info.Kind != IndexVar {
			return "", errorAt("N006", x.Pos, "variable %q is not an index", x.Name)
		}
		return x.Name, nil

	case *lang.Call:
		decl, ok := n.prog.FuncByName(x.Func)
		if !ok {
			return "", errorAt("N007", x.Pos, "call to undeclared index function %q in index position", x.Func)
		}
		if len(x.Args) != 1 {
			return "", errorAt("N008", x.Pos, "index function %q takes exactly one argument", x.Func)
		}
		arg, err := n.indexExpr(x.Args[0], out)
		if err != nil {
			return "", err
		}
		if got := n.vars[arg].Region; !n.prog.SameSpace(got, decl.From) {
			return "", errorAt("N009", x.Pos, "index function %q expects an index into %s, got %s", x.Func, decl.From, got)
		}
		t := n.fresh()
		n.vars[t] = VarInfo{Kind: IndexVar, Region: decl.To}
		*out = append(*out, &Apply{Var: t, Func: x.Func, Arg: arg, Pos: x.Pos})
		return t, nil

	case *lang.FieldAccess:
		decl, ok := n.prog.RegionByName(x.Region)
		if !ok {
			return "", errorAt("N010", x.Pos, "unknown region %q", x.Region)
		}
		field, ok := decl.FieldByName(x.Field)
		if !ok {
			return "", errorAt("N011", x.Pos, "region %q has no field %q", x.Region, x.Field)
		}
		if field.Kind != lang.IndexKind {
			return "", errorAt("N012", x.Pos, "field %s.%s is not an index field", x.Region, x.Field)
		}
		idx, err := n.indexExpr(x.Index, out)
		if err != nil {
			return "", err
		}
		if err := n.checkIndexInto(idx, x.Region, x.Pos); err != nil {
			return "", err
		}
		t := n.fresh()
		n.vars[t] = VarInfo{Kind: IndexVar, Region: field.Target}
		*out = append(*out, &Load{Var: t, Region: x.Region, Field: x.Field, Idx: idx, Pos: x.Pos})
		return t, nil

	default:
		return "", errorAt("N013", e.ExprPos(), "expression %s cannot be used as an index", e)
	}
}

// scalarExpr normalizes a scalar expression, hoisting region loads and
// index-function applications into temporaries.
func (n *Normalizer) scalarExpr(e lang.Expr, out *[]Stmt) (ScalarExpr, error) {
	switch x := e.(type) {
	case *lang.NumLit:
		v, err := strconv.ParseFloat(x.Text, 64)
		if err != nil {
			return nil, errorAt("N014", x.Pos, "malformed number %q", x.Text)
		}
		return Const{V: v}, nil

	case *lang.VarRef:
		if _, ok := n.vars[x.Name]; !ok {
			return nil, errorAt("N005", x.Pos, "use of undefined variable %q", x.Name)
		}
		return VarExpr{Name: x.Name}, nil

	case *lang.FieldAccess:
		decl, ok := n.prog.RegionByName(x.Region)
		if !ok {
			return nil, errorAt("N010", x.Pos, "unknown region %q", x.Region)
		}
		field, ok := decl.FieldByName(x.Field)
		if !ok {
			return nil, errorAt("N011", x.Pos, "region %q has no field %q", x.Region, x.Field)
		}
		if field.Kind == lang.RangeKind {
			return nil, errorAt("N015", x.Pos, "range field %s cannot be read as a scalar", x)
		}
		idx, err := n.indexExpr(x.Index, out)
		if err != nil {
			return nil, err
		}
		if err := n.checkIndexInto(idx, x.Region, x.Pos); err != nil {
			return nil, err
		}
		t := n.fresh()
		kind := ScalarVar
		if field.Kind == lang.IndexKind {
			kind = IndexVar
		}
		n.vars[t] = VarInfo{Kind: kind, Region: field.Target}
		*out = append(*out, &Load{Var: t, Region: x.Region, Field: x.Field, Idx: idx, Pos: x.Pos})
		return VarExpr{Name: t}, nil

	case *lang.Call:
		if decl, ok := n.prog.FuncByName(x.Func); ok {
			// Index function in a scalar position: hoist and read the
			// resulting index as a value.
			if len(x.Args) != 1 {
				return nil, errorAt("N008", x.Pos, "index function %q takes exactly one argument", x.Func)
			}
			arg, err := n.indexExpr(x.Args[0], out)
			if err != nil {
				return nil, err
			}
			if got := n.vars[arg].Region; !n.prog.SameSpace(got, decl.From) {
				return nil, errorAt("N009", x.Pos, "index function %q expects an index into %s, got %s", x.Func, decl.From, got)
			}
			t := n.fresh()
			n.vars[t] = VarInfo{Kind: IndexVar, Region: decl.To}
			*out = append(*out, &Apply{Var: t, Func: x.Func, Arg: arg, Pos: x.Pos})
			return VarExpr{Name: t}, nil
		}
		args := make([]ScalarExpr, len(x.Args))
		for i, a := range x.Args {
			na, err := n.scalarExpr(a, out)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return CallExpr{Func: x.Func, Args: args}, nil

	case *lang.Binary:
		l, err := n.scalarExpr(x.L, out)
		if err != nil {
			return nil, err
		}
		r, err := n.scalarExpr(x.R, out)
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: x.Op, L: l, R: r}, nil

	default:
		return nil, errorAt("N016", e.ExprPos(), "unsupported expression %T", e)
	}
}

// checkIndexInto verifies that variable idx indexes region reg.
func (n *Normalizer) checkIndexInto(idx, reg string, pos lang.Pos) error {
	info := n.vars[idx]
	if !n.prog.SameSpace(info.Region, reg) {
		return errorAt("N017", pos, "index %q points into region %s, not %s", idx, info.Region, reg)
	}
	return nil
}

func errorAt(code string, pos lang.Pos, format string, args ...any) error {
	return lang.Errorf(code, lang.SpanAt(pos), format, args...)
}
