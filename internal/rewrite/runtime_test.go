package rewrite

import (
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
)

// TestRunShardRunTimeErrors pins the errors that depend on values: each
// must surface only when the failing statement runs, with its exact text
// and the iteration it ran in. The body runs over R = [0, size) (size 4
// unless a case says otherwise) with loop variable i; every access goes
// through partition P, whose color-0 subregion is sub (all of R unless a
// case says otherwise), and the iteration partition's color 0 is iter
// (all of R unless a case says otherwise). Batch-safe bodies run over
// batches of 256 iterations, and their first error in (iteration,
// statement) order is still the one reported.
func TestRunShardRunTimeErrors(t *testing.T) {
	v := func(name string) ir.ScalarExpr { return ir.VarExpr{Name: name} }
	c := func(x float64) ir.ScalarExpr { return ir.Const{V: x} }
	bin := func(op string, l, r ir.ScalarExpr) ir.ScalarExpr { return ir.BinExpr{Op: op, L: l, R: r} }
	load := func(dst, field, idx string) ir.Stmt {
		return &ir.Load{Var: dst, Region: "R", Field: field, Idx: idx}
	}
	cases := []struct {
		name      string
		body      []ir.Stmt
		iter, sub geometry.IndexSet
		size      int64
		batched   bool // the body must be batch-safe
		want      string
	}{
		{name: "unbound access index",
			body: []ir.Stmt{load("x", "s", "j")},
			want: `task 0, iteration 0: x = R[j].s: unbound variable "j"`},
		{name: "unbound variable in an expression",
			body: []ir.Stmt{&ir.LetScalar{Var: "a", Rhs: bin("+", v("i"), v("zz"))}},
			want: `task 0, iteration 0: a = (i + zz): unbound variable "zz"`},
		{name: "unbound alias source",
			body: []ir.Stmt{&ir.Alias{Var: "y", Src: "zz"}},
			want: `task 0, iteration 0: y = zz: unbound source`},
		{name: "unbound guard index",
			body: []ir.Stmt{&ir.IfIn{Idx: "zz", Space: "R"}},
			want: `task 0, iteration 0: if (zz in R) {...}: unbound index`},
		{name: "scalar used as an index",
			body: []ir.Stmt{&ir.LetScalar{Var: "a", Rhs: c(1)}, load("x", "s", "a")},
			want: `task 0, iteration 0: x = R[a].s: variable "a" is not an index`},
		{name: "invalid index",
			body: []ir.Stmt{load("q", "p", "i"), load("x", "s", "q")},
			want: `task 0, iteration 1: x = R[q].s: variable "q" holds an invalid index`},
		{name: "unknown index function, reached at iteration 2",
			body: []ir.Stmt{&ir.IfCmp{Op: "==", L: v("i"), R: c(2), Then: []ir.Stmt{
				&ir.Apply{Var: "y", Func: "nof", Arg: "i"},
			}}},
			want: `task 0, iteration 2: y = nof(i): unknown index function`},
		{name: "unknown guard space, reached by the first valid index",
			body: []ir.Stmt{load("q", "p2", "i"), &ir.IfIn{Idx: "q", Space: "Nowhere"}},
			want: `task 0, iteration 2: if (q in Nowhere) {...}: unknown space`},
		{name: "unknown comparison",
			body: []ir.Stmt{&ir.IfCmp{Op: "<", L: v("i"), R: c(2)}},
			want: `task 0, iteration 0: if (i < 2) {...}: unknown comparison`},
		{name: "unknown comparison evaluates both sides first",
			body: []ir.Stmt{&ir.IfCmp{Op: "<", L: c(1), R: v("zz")}},
			want: `task 0, iteration 0: unbound variable "zz"`},
		{name: "unknown operator",
			body: []ir.Stmt{&ir.LetScalar{Var: "a", Rhs: bin("%", v("i"), c(2))}},
			want: `task 0, iteration 0: a = (i % 2): unknown operator "%"`},
		{name: "unknown operator evaluates both sides first",
			body: []ir.Stmt{&ir.LetScalar{Var: "a", Rhs: bin("%", c(1), v("zz"))}},
			want: `task 0, iteration 0: a = (1 % zz): unbound variable "zz"`},
		{name: "loop-variable load escapes",
			body: []ir.Stmt{load("x", "s", "i")},
			sub:  geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 2}, geometry.Interval{Lo: 3, Hi: 4}),
			want: `task 0, iteration 2: access R[2].s escapes subregion P[0] — unsound partitioning`},
		{name: "loop-variable store escapes",
			body: []ir.Stmt{&ir.Store{Region: "R", Field: "s", Idx: "i", Op: lang.OpSet, Rhs: c(1)}},
			sub:  geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 1}, geometry.Interval{Lo: 2, Hi: 4}),
			want: `task 0, iteration 1: access R[1].s escapes subregion P[0] — unsound partitioning`},
		{name: "reassigned loop variable escapes",
			body: []ir.Stmt{load("i", "p", "i"), load("x", "s", "i")},
			iter: geometry.Range(0, 2),
			sub:  geometry.Range(0, 2),
			want: `task 0, iteration 0: access R[3].s escapes subregion P[0] — unsound partitioning`},
		{name: "first error at lane 44 of the second batch",
			body: []ir.Stmt{load("x", "s", "i"), &ir.Store{Region: "R", Field: "s2", Idx: "i", Op: lang.OpSet, Rhs: v("x")}},
			size: 600, batched: true,
			sub:  geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 300}, geometry.Interval{Lo: 301, Hi: 600}),
			want: `task 0, iteration 300: access R[300].s escapes subregion P[0] — unsound partitioning`},
		{name: "a later iteration fails at an earlier statement",
			body: []ir.Stmt{
				&ir.IfCmp{Op: "==", L: v("i"), R: c(3), Then: []ir.Stmt{&ir.Apply{Var: "y", Func: "nof", Arg: "i"}}},
				&ir.IfCmp{Op: "==", L: v("i"), R: c(2), Then: []ir.Stmt{&ir.Apply{Var: "z", Func: "nof2", Arg: "i"}}},
			},
			batched: true,
			want:    `task 0, iteration 2: z = nof2(i): unknown index function`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.size
			if size == 0 {
				size = 4
			}
			r := region.New("R", size)
			r.AddScalarField("s")
			r.AddScalarField("s2")
			r.AddIndexField("p")
			r.AddIndexField("p2")
			copy(r.Index("p"), []int64{3, -1, 0, 1})
			copy(r.Index("p2"), []int64{-1, -1, 1, -1})
			m := ir.NewMachine().AddRegion(r)
			iter, sub := tc.iter, tc.sub
			if iter.Empty() {
				iter = r.Space()
			}
			if sub.Empty() {
				sub = r.Space()
			}
			pl := &ParallelLoop{
				Loop:    &ir.Loop{Var: "i", Region: "R", Stmts: tc.body},
				IterSym: "I",
				Access:  map[ir.Stmt]*AccessInfo{},
			}
			var plan func([]ir.Stmt)
			plan = func(stmts []ir.Stmt) {
				for _, st := range stmts {
					switch st := st.(type) {
					case *ir.Load:
						pl.Access[st] = &AccessInfo{Sym: "P", Kind: infer.ReadAccess, Region: st.Region, Field: st.Field}
					case *ir.Store:
						pl.Access[st] = &AccessInfo{Sym: "P", Kind: infer.WriteAccess, Op: st.Op, Region: st.Region, Field: st.Field}
					case *ir.IfCmp:
						plan(st.Then)
						plan(st.Else)
					case *ir.IfIn:
						plan(st.Then)
						plan(st.Else)
					}
				}
			}
			plan(tc.body)
			parts := map[string]*region.Partition{
				"I": region.NewPartition("I", r, []geometry.IndexSet{iter}),
				"P": region.NewPartition("P", r, []geometry.IndexSet{sub}),
			}
			if tc.batched && !batchSafe(pl) {
				t.Fatal("the body is not batch-safe")
			}
			_, err := RunShard(m, parts, pl, 0)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v\nwant  %s", err, tc.want)
			}
		})
	}
}
