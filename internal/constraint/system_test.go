package constraint

import (
	"strings"
	"testing"

	"autopart/internal/dpl"
)

func v(name string) dpl.Expr { return dpl.Var{Name: name} }

func img(of dpl.Expr, f, r string) dpl.Expr {
	return dpl.ImageExpr{Of: of, Func: f, Region: r}
}

func pre(r, f string, of dpl.Expr) dpl.Expr {
	return dpl.PreimageExpr{Region: r, Func: f, Of: of}
}

func eq(r string) dpl.Expr { return dpl.EqualExpr{Region: r} }

func union(l, r dpl.Expr) dpl.Expr { return dpl.BinExpr{Op: dpl.OpUnion, L: l, R: r} }

func TestSystemAddAndDedup(t *testing.T) {
	sys := &System{}
	sys.AddPred(Pred{Kind: Part, E: v("P1"), Region: "R"})
	sys.AddPred(Pred{Kind: Part, E: v("P1"), Region: "R"}) // dup
	sys.AddPred(Pred{Kind: Disj, E: v("P1")})
	sys.AddSubset(Subset{L: v("P1"), R: v("P2")})
	sys.AddSubset(Subset{L: v("P1"), R: v("P2")}) // dup
	sys.AddSubset(Subset{L: v("P1"), R: v("P1")}) // tautology

	if len(sys.Preds) != 2 {
		t.Errorf("Preds = %d, want 2", len(sys.Preds))
	}
	if len(sys.Subsets) != 1 {
		t.Errorf("Subsets = %d, want 1", len(sys.Subsets))
	}
}

func TestSystemString(t *testing.T) {
	sys := &System{}
	if sys.String() != "⊤" {
		t.Errorf("empty system = %q", sys.String())
	}
	sys.AddPred(Pred{Kind: Part, E: v("P1"), Region: "R"})
	sys.AddPred(Pred{Kind: Comp, E: v("P1"), Region: "R"})
	sys.AddPred(Pred{Kind: Disj, E: v("P1")})
	sys.AddSubset(Subset{L: img(v("P1"), "g", "S"), R: v("P2")})
	got := sys.String()
	for _, frag := range []string{"PART(P1, R)", "COMP(P1, R)", "DISJ(P1)", "image(P1, g, S) ⊆ P2"} {
		if !strings.Contains(got, frag) {
			t.Errorf("String missing %q: %s", frag, got)
		}
	}
}

func TestSystemSubst(t *testing.T) {
	sys := &System{}
	sys.AddPred(Pred{Kind: Disj, E: v("P1")})
	sys.AddSubset(Subset{L: v("P1"), R: v("P3")})
	sys.AddSubset(Subset{L: img(v("P1"), "g", "S"), R: v("P2")})

	sys.Subst("P1", eq("R"))
	if got := sys.Preds[0].E.String(); got != "equal(R)" {
		t.Errorf("pred after subst = %s", got)
	}
	if got := sys.Subsets[0].String(); got != "equal(R) ⊆ P3" {
		t.Errorf("subset after subst = %s", got)
	}

	// Substituting P3 with equal(R) makes the first subset a tautology,
	// which must be dropped.
	sys.Subst("P3", eq("R"))
	if len(sys.Subsets) != 1 {
		t.Fatalf("tautology not dropped: %s", sys)
	}
	if got := sys.Subsets[0].String(); got != "image(equal(R), g, S) ⊆ P2" {
		t.Errorf("remaining subset = %s", got)
	}
}

func TestSymbolsAndPartOf(t *testing.T) {
	sys := &System{}
	sys.AddPred(Pred{Kind: Part, E: v("P1"), Region: "R"})
	sys.AddPred(Pred{Kind: Part, E: v("P2"), Region: "S"})
	sys.AddSubset(Subset{L: img(v("P1"), "g", "S"), R: v("P2")})
	sys.AddSubset(Subset{L: v("Q"), R: v("P1")})

	syms := sys.Symbols()
	if len(syms) != 3 || syms[0] != "P1" || syms[1] != "P2" || syms[2] != "Q" {
		t.Errorf("Symbols = %v", syms)
	}
	po := sys.PartOf()
	if po["P1"] != "R" || po["P2"] != "S" || po["Q"] != "" {
		t.Errorf("PartOf = %v", po)
	}
	p1, q := dpl.SymID("P1"), dpl.SymID("Q")
	if !sys.HasPredID(Part, p1) || sys.HasPredID(Disj, p1) || sys.HasPredID(Part, q) {
		t.Error("HasPredID wrong")
	}
	into := sys.SubsetsIntoIdxID(dpl.SymID("P2"))
	if len(into) != 1 || sys.Subsets[into[0]].L.String() != "image(P1, g, S)" {
		t.Errorf("SubsetsIntoIdxID = %v", into)
	}
}

func TestCloneAndAnd(t *testing.T) {
	a := &System{}
	a.AddPred(Pred{Kind: Disj, E: v("P")})
	b := a.Clone()
	b.AddPred(Pred{Kind: Comp, E: v("P"), Region: "R"})
	if len(a.Preds) != 1 || len(b.Preds) != 2 {
		t.Error("Clone should not share predicate storage")
	}
	a.And(b)
	if len(a.Preds) != 3 {
		t.Errorf("And: %d preds", len(a.Preds))
	}
}

func TestConjuncts(t *testing.T) {
	sys := &System{}
	sys.AddPred(Pred{Kind: Disj, E: v("P")})
	sys.AddSubset(Subset{L: v("P"), R: v("Q")})
	cj := sys.Conjuncts()
	if len(cj) != 2 || cj[0].Pred == nil || cj[1].Subset == nil {
		t.Fatalf("Conjuncts = %+v", cj)
	}
	if cj[0].Summary != "DISJ(P)" || cj[1].Summary != "P ⊆ Q" {
		t.Errorf("summaries: %q, %q", cj[0].Summary, cj[1].Summary)
	}
}

func TestPredKindStrings(t *testing.T) {
	if Part.String() != "PART" || Disj.String() != "DISJ" || Comp.String() != "COMP" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(PredKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
	p := Pred{Kind: Comp, E: v("P"), Region: "R"}
	if p.String() != "COMP(P, R)" {
		t.Errorf("Pred.String = %q", p.String())
	}
}
