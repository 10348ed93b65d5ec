package solver

import (
	"errors"
	"strings"
	"testing"

	"autopart/internal/constraint"
	"autopart/internal/dpl"
	"autopart/internal/lang"
)

// example2System builds the Fig. 7 system, which needs several
// backtracking nodes to resolve (P1 and P2 via the equal rule, P3 via a
// closed union).
func example2System() *constraint.System {
	sys := &constraint.System{}
	sys.AddPred(constraint.Pred{Kind: constraint.Part, E: v("P1"), Region: "R"})
	sys.AddPred(constraint.Pred{Kind: constraint.Comp, E: v("P1"), Region: "R"})
	sys.AddPred(constraint.Pred{Kind: constraint.Disj, E: v("P1")})
	sys.AddPred(constraint.Pred{Kind: constraint.Part, E: v("P2"), Region: "S"})
	sys.AddSubset(constraint.Subset{L: img(v("P1"), "g", "S"), R: v("P2")})
	sys.AddPred(constraint.Pred{Kind: constraint.Part, E: v("P3"), Region: "R"})
	sys.AddSubset(constraint.Subset{L: v("P1"), R: v("P3")})
	return sys
}

// TestSolveBudgetExhaustionSurfacesS001 proves that running out of
// search budget terminates with the S001 "no solution" diagnostic
// instead of hanging or panicking.
func TestSolveBudgetExhaustionSurfacesS001(t *testing.T) {
	s := New(nil, nil)
	s.budget = 1 // the first recursive step already exceeds this
	_, err := s.Solve(example2System())
	if err == nil {
		t.Fatal("expected budget-exhausted solve to fail")
	}
	var le *lang.Error
	if !errors.As(err, &le) || le.DiagCode() != "S001" {
		t.Errorf("want a structured S001 error, got: %#v", err)
	}
	if !strings.Contains(err.Error(), "no solution") {
		t.Errorf("want a no-solution message, got: %v", err)
	}
}

// TestSolveBudgetIsolatedBetweenRuns proves two properties of the
// budget plumbing: (1) each Solve gets a fresh countdown, so an
// exhausted run does not eat into later runs' budgets; and (2) a
// budget-caused failure is never recorded in the refuted-subtree memo —
// otherwise the retry of the identical system would fail on a memo hit
// even with a restored budget.
func TestSolveBudgetIsolatedBetweenRuns(t *testing.T) {
	s := New(nil, nil)
	s.budget = 2
	if _, err := s.Solve(example2System()); err == nil {
		t.Fatal("expected exhausted solve to fail")
	}
	s.budget = 200000
	prog, err := s.Solve(example2System())
	if err != nil {
		t.Fatalf("retry with restored budget failed (stale memo or corrupted budget): %v", err)
	}
	if len(prog.Stmts) == 0 {
		t.Error("retry produced an empty program")
	}
	// A third run on the same solver must still see the full budget.
	if _, err := s.Solve(example2System()); err != nil {
		t.Fatalf("third solve failed: %v", err)
	}
}

// TestSolveBudgetDefaultUnchangedByFailure proves an unsolvable system
// (genuine refutation, not exhaustion) leaves the configured budget
// intact for subsequent solvable systems.
func TestSolveBudgetDefaultUnchangedByFailure(t *testing.T) {
	s := New(nil, nil)
	bad := &constraint.System{}
	bad.AddPred(constraint.Pred{Kind: constraint.Part, E: v("Q1"), Region: "R"})
	bad.AddPred(constraint.Pred{Kind: constraint.Comp, E: v("Q1"), Region: "R"})
	bad.AddPred(constraint.Pred{Kind: constraint.Part, E: v("Q2"), Region: "S"})
	bad.AddPred(constraint.Pred{Kind: constraint.Disj, E: v("Q2")})
	bad.AddSubset(constraint.Subset{L: dpl.ImageMultiExpr{Of: v("Q1"), Func: "F", Region: "S"}, R: v("Q2")})
	if _, err := s.Solve(bad); err == nil {
		t.Fatal("expected unsolvable system to fail")
	}
	if _, err := s.Solve(example2System()); err != nil {
		t.Fatalf("solvable system failed after an unsolvable one: %v", err)
	}
}

// TestSolutionResolveCyclicCanonTerminates proves Resolve cannot loop
// forever on a malformed cyclic Canon map: the hop bound cuts the walk
// and the result is deterministic.
func TestSolutionResolveCyclicCanonTerminates(t *testing.T) {
	sol := &Solution{Canon: map[string]string{"a": "b", "b": "a"}}
	got1 := sol.Resolve("a")
	got2 := sol.Resolve("a")
	if got1 != got2 {
		t.Errorf("cyclic Resolve not deterministic: %q vs %q", got1, got2)
	}
	if got1 != "a" && got1 != "b" {
		t.Errorf("cyclic Resolve escaped the cycle: %q", got1)
	}
	// Self-loop and longer cycle.
	sol = &Solution{Canon: map[string]string{"x": "x", "p": "q", "q": "r", "r": "p"}}
	if got := sol.Resolve("x"); got != "x" {
		t.Errorf("self-loop Resolve = %q, want x", got)
	}
	if got := sol.Resolve("p"); got != "p" && got != "q" && got != "r" {
		t.Errorf("3-cycle Resolve escaped the cycle: %q", got)
	}
}
