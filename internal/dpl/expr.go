// Package dpl implements the Dependent Partitioning Language: the
// partition-constructing expressions of Fig. 5 (equal, image, preimage,
// the generalized IMAGE/PREIMAGE of §4, and the subregion-wise set
// operators), programs made of P = E statements, an evaluator that
// computes concrete partitions, and program-level cleanups (common
// subexpression elimination, simplification).
//
// The same expression type doubles as the expression sublanguage of
// partitioning constraints (package constraint), exactly as in the paper
// where DPL operators appear syntactically inside constraints.
package dpl

import "fmt"

// Expr is a DPL partition expression. Implementations are immutable;
// building a new expression never mutates subexpressions.
type Expr interface {
	// String renders the expression in the paper's concrete syntax.
	String() string
	// isExpr restricts implementations to this package.
	isExpr()
}

// Var references a partition symbol (P1, pCells, ...).
type Var struct {
	Name string
}

// EqualExpr is equal(R): a fresh complete, disjoint partition of R with
// approximately equal subregions. Color counts are elided in constraints
// (they do not affect solving) and supplied at evaluation time.
type EqualExpr struct {
	Region string
}

// ImageExpr is image(Of, Func, Region) for a single-valued index map.
type ImageExpr struct {
	Of     Expr
	Func   string
	Region string
}

// PreimageExpr is preimage(Region, Func, Of) for a single-valued map.
type PreimageExpr struct {
	Region string
	Func   string
	Of     Expr
}

// ImageMultiExpr is IMAGE(Of, Func, Region) for a multi-valued map (§4).
type ImageMultiExpr struct {
	Of     Expr
	Func   string
	Region string
}

// PreimageMultiExpr is PREIMAGE(Region, Func, Of) for a multi-valued map.
type PreimageMultiExpr struct {
	Region string
	Func   string
	Of     Expr
}

// BinOp identifies a subregion-wise set operator.
type BinOp int

// Subregion-wise set operators.
const (
	OpUnion BinOp = iota
	OpIntersect
	OpMinus
)

func (op BinOp) String() string {
	switch op {
	case OpUnion:
		return "∪"
	case OpIntersect:
		return "∩"
	case OpMinus:
		return "−"
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// BinExpr is the subregion-wise union, intersection, or difference of two
// partition expressions.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (Var) isExpr()               {}
func (EqualExpr) isExpr()         {}
func (ImageExpr) isExpr()         {}
func (PreimageExpr) isExpr()      {}
func (ImageMultiExpr) isExpr()    {}
func (PreimageMultiExpr) isExpr() {}
func (BinExpr) isExpr()           {}

// The String methods return the interned canonical rendering: computed
// once per distinct expression, O(1) afterwards (see intern.go).
func (e Var) String() string               { return e.Name }
func (e EqualExpr) String() string         { return info(e).key }
func (e ImageExpr) String() string         { return info(e).key }
func (e PreimageExpr) String() string      { return info(e).key }
func (e ImageMultiExpr) String() string    { return info(e).key }
func (e PreimageMultiExpr) String() string { return info(e).key }
func (e BinExpr) String() string           { return info(e).key }

// Equal reports structural equality of two expressions. Every Expr
// implementation is a comparable value struct, so structural equality is
// exactly Go's interface equality — one recursive comparison with early
// mismatch exit, no allocation.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return false
	}
	return a == b
}

// FreeVars returns the partition symbols occurring in e, sorted and
// deduplicated. The slice is interned and shared: callers must not
// mutate it.
func FreeVars(e Expr) []string { return info(e).fvs }

// Closed reports whether e contains no partition symbols (the solver's
// notion of a closed expression, Algorithm 2).
func Closed(e Expr) bool { return len(info(e).fvs) == 0 }

// Subst replaces every occurrence of the symbol name in e with repl.
// Subtrees that do not mention the symbol (an interned-metadata check)
// are returned unchanged without traversal.
func Subst(e Expr, name string, repl Expr) Expr {
	if !Mentions(e, name) {
		return e
	}
	switch x := e.(type) {
	case Var:
		if x.Name == name {
			return repl
		}
		return x
	case ImageExpr:
		return ImageExpr{Of: Subst(x.Of, name, repl), Func: x.Func, Region: x.Region}
	case PreimageExpr:
		return PreimageExpr{Region: x.Region, Func: x.Func, Of: Subst(x.Of, name, repl)}
	case ImageMultiExpr:
		return ImageMultiExpr{Of: Subst(x.Of, name, repl), Func: x.Func, Region: x.Region}
	case PreimageMultiExpr:
		return PreimageMultiExpr{Region: x.Region, Func: x.Func, Of: Subst(x.Of, name, repl)}
	case BinExpr:
		return BinExpr{Op: x.Op, L: Subst(x.L, name, repl), R: Subst(x.R, name, repl)}
	default:
		return e
	}
}

// RenameVars applies a simultaneous symbol-to-symbol renaming. It
// returns e unchanged (no rebuild, no allocation) when e mentions none
// of the renamed symbols. Equivalent to applying Subst once per entry
// when no renamed-to symbol is itself renamed.
func RenameVars(e Expr, renames map[string]string) Expr {
	hit := false
	for _, v := range FreeVars(e) {
		if _, ok := renames[v]; ok {
			hit = true
			break
		}
	}
	if !hit {
		return e
	}
	switch x := e.(type) {
	case Var:
		if to, ok := renames[x.Name]; ok {
			return Var{Name: to}
		}
		return x
	case ImageExpr:
		return ImageExpr{Of: RenameVars(x.Of, renames), Func: x.Func, Region: x.Region}
	case PreimageExpr:
		return PreimageExpr{Region: x.Region, Func: x.Func, Of: RenameVars(x.Of, renames)}
	case ImageMultiExpr:
		return ImageMultiExpr{Of: RenameVars(x.Of, renames), Func: x.Func, Region: x.Region}
	case PreimageMultiExpr:
		return PreimageMultiExpr{Region: x.Region, Func: x.Func, Of: RenameVars(x.Of, renames)}
	case BinExpr:
		return BinExpr{Op: x.Op, L: RenameVars(x.L, renames), R: RenameVars(x.R, renames)}
	default:
		return e
	}
}

// Size returns the number of AST nodes in e; used by solver heuristics to
// prefer smaller solutions. O(1) via the interned metadata.
func Size(e Expr) int { return info(e).size }

// RegionOf returns the region an expression partitions, given the regions
// of free partition symbols (from PART predicates). ok is false when the
// region cannot be determined (unknown symbol, or a set operation over
// partitions of different regions).
func RegionOf(e Expr, partOf map[string]string) (string, bool) {
	switch x := e.(type) {
	case Var:
		r, ok := partOf[x.Name]
		return r, ok
	case EqualExpr:
		return x.Region, true
	case ImageExpr:
		return x.Region, true
	case PreimageExpr:
		return x.Region, true
	case ImageMultiExpr:
		return x.Region, true
	case PreimageMultiExpr:
		return x.Region, true
	case BinExpr:
		lr, lok := RegionOf(x.L, partOf)
		rr, rok := RegionOf(x.R, partOf)
		if lok && rok && lr == rr {
			return lr, true
		}
		// The difference A − B partitions A's region even if B's region is
		// unknown.
		if x.Op == OpMinus && lok {
			return lr, true
		}
		return "", false
	default:
		return "", false
	}
}

// Simplify applies semantics-preserving rewrites:
//
//	image(E, id, R) = E    when E partitions R (used by Algorithm 1)
//	E ∪ E = E ∩ E = E
//	E − E = E ∩ (E' − E') ... not introduced; only identical-operand cases
//
// partOf gives the regions of free symbols as in RegionOf.
func Simplify(e Expr, partOf map[string]string) Expr {
	switch x := e.(type) {
	case ImageExpr:
		of := Simplify(x.Of, partOf)
		if x.Func == "id" {
			if r, ok := RegionOf(of, partOf); ok && r == x.Region {
				return of
			}
		}
		return ImageExpr{Of: of, Func: x.Func, Region: x.Region}
	case PreimageExpr:
		return PreimageExpr{Region: x.Region, Func: x.Func, Of: Simplify(x.Of, partOf)}
	case ImageMultiExpr:
		return ImageMultiExpr{Of: Simplify(x.Of, partOf), Func: x.Func, Region: x.Region}
	case PreimageMultiExpr:
		return PreimageMultiExpr{Region: x.Region, Func: x.Func, Of: Simplify(x.Of, partOf)}
	case BinExpr:
		l := Simplify(x.L, partOf)
		r := Simplify(x.R, partOf)
		if (x.Op == OpUnion || x.Op == OpIntersect) && Equal(l, r) {
			return l
		}
		return BinExpr{Op: x.Op, L: l, R: r}
	default:
		return e
	}
}

// UnionAll folds expressions into a right-balanced union; it returns nil
// for an empty list.
func UnionAll(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		if Equal(out, e) {
			continue
		}
		out = BinExpr{Op: OpUnion, L: out, R: e}
	}
	return out
}

// Key returns a canonical string usable as a map key for structural
// equality (the rendering is injective for this AST since region,
// function and symbol names cannot contain the syntax characters). The
// string is interned: one O(size) construction per distinct expression,
// O(1) afterwards.
func Key(e Expr) string { return info(e).key }
