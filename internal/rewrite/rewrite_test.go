package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/optimize"
	"autopart/internal/region"
	"autopart/internal/solver"
)

func compile(t *testing.T, src string, relax bool) ([]*optimize.LoopPlan, *solver.Solution, *optimize.PrivatePlan) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loops, err := ir.NormalizeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	results, err := infer.New(prog).InferProgram(loops)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*optimize.LoopPlan
	if relax {
		plans = optimize.Relax(results)
	} else {
		plans = make([]*optimize.LoopPlan, len(results))
		for i, r := range results {
			plans[i] = &optimize.LoopPlan{Res: r, Sys: r.Sys}
		}
	}
	clones := make([]*infer.Result, len(plans))
	for i, p := range plans {
		c := *p.Res
		c.Sys = p.Sys
		clones[i] = &c
	}
	sol, err := solver.SolveProgram(clones, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	priv := optimize.FindPrivateSubPartitions(plans, sol, nil)
	return plans, sol, priv
}

const reduceSrc = `
region Faces { c1: index(Cells), flux: scalar }
region Cells { res: scalar }
for f in Faces {
  Cells[Faces[f].c1].res += Faces[f].flux
}
`

func TestBuildUnrelaxedReduction(t *testing.T) {
	plans, sol, priv := compile(t, reduceSrc, false)
	pls := Build(plans, sol, priv)
	if len(pls) != 1 {
		t.Fatalf("launches = %d", len(pls))
	}
	pl := pls[0]
	if pl.Relaxed {
		t.Error("loop should not be relaxed")
	}
	var sawBuffered bool
	for _, info := range pl.Access {
		if info.Kind == infer.ReduceAccess {
			if !info.Buffered || info.Guarded {
				t.Errorf("reduce access plan = %+v", info)
			}
			if info.PrivateSym == "" {
				t.Error("private sub-partition should be attached")
			}
			sawBuffered = true
		}
	}
	if !sawBuffered {
		t.Fatal("no reduce access found")
	}
	if !strings.Contains(pl.String(), "parallel for") {
		t.Errorf("String = %q", pl.String())
	}
	syms := pl.Symbols()
	if len(syms) < 2 || syms[0] != pl.IterSym {
		t.Errorf("Symbols = %v", syms)
	}
}

func TestBuildRelaxedGuards(t *testing.T) {
	src := `
region R { v: scalar }
region S { w: scalar }
function f : R -> S
function g : R -> S
for i in R {
  S[f(i)].w += R[i].v
  S[g(i)].w += R[i].v
}
`
	plans, sol, priv := compile(t, src, true)
	pls := Build(plans, sol, priv)
	pl := pls[0]
	if !pl.Relaxed {
		t.Fatal("loop should be relaxed")
	}
	guarded := 0
	for _, info := range pl.Access {
		if info.Guarded {
			guarded++
			if info.Buffered {
				t.Error("guarded access must not be buffered")
			}
		}
	}
	if guarded != 2 {
		t.Errorf("guarded accesses = %d, want 2", guarded)
	}
}

// TestExecutorContainmentViolation binds a partition that is too small
// and checks the containment error fires.
func TestExecutorContainmentViolation(t *testing.T) {
	plans, sol, priv := compile(t, reduceSrc, false)
	pls := Build(plans, sol, priv)
	pl := pls[0]

	faces := region.New("Faces", 8)
	faces.AddIndexField("c1")
	faces.AddScalarField("flux")
	cells := region.New("Cells", 8)
	cells.AddScalarField("res")
	for i := range faces.Index("c1") {
		faces.Index("c1")[i] = int64(i)
	}
	m := ir.NewMachine().AddRegion(faces).AddRegion(cells)

	parts := map[string]*region.Partition{
		// Iteration partition: everything in color 0.
		pl.IterSym: region.NewPartition("iter", faces, []geometry.IndexSet{
			geometry.Range(0, 8), {},
		}),
	}
	// Bind every other symbol to an empty-ish partition to provoke the
	// containment check.
	for _, sym := range pl.Symbols()[1:] {
		var parent *region.Region
		for _, info := range pl.Access {
			if info.Sym == sym {
				parent = m.Regions[info.Region]
			}
		}
		if parent == nil {
			parent = faces
		}
		parts[sym] = region.NewPartition(sym, parent, []geometry.IndexSet{
			geometry.Range(0, 1), {},
		})
	}
	err := RunLaunch(m, parts, pl)
	if err == nil || !strings.Contains(err.Error(), "escapes subregion") {
		t.Fatalf("expected containment violation, got %v", err)
	}
}

func TestExecutorUnboundPartitions(t *testing.T) {
	plans, sol, priv := compile(t, reduceSrc, false)
	pl := Build(plans, sol, priv)[0]
	if err := RunLaunch(ir.NewMachine(), map[string]*region.Partition{}, pl); err == nil || !strings.Contains(err.Error(), "unbound iteration partition") {
		t.Fatalf("err = %v", err)
	}
}

// TestExecutorMalformedLoops runs reduceSrc's launch against machines
// and plans it does not fit, as a decoded program blob can deliver
// them. Each must fail with an error naming the offending statement, not
// panic.
func TestExecutorMalformedLoops(t *testing.T) {
	isStore := func(s ir.Stmt) bool { _, ok := s.(*ir.Store); return ok }
	isFluxLoad := func(s ir.Stmt) bool { l, ok := s.(*ir.Load); return ok && l.Field == "flux" }
	cases := []struct {
		name string
		edit func(m *ir.Machine, pl *ParallelLoop)
		stmt func(ir.Stmt) bool // the statement the error must name
		want string
	}{
		{"missing region", func(m *ir.Machine, _ *ParallelLoop) {
			delete(m.Regions, "Cells")
		}, isStore, "unknown region Cells"},
		{"missing field", func(m *ir.Machine, _ *ParallelLoop) {
			faces := region.New("Faces", 4)
			faces.AddIndexField("c1")
			m.AddRegion(faces)
		}, isFluxLoad, "region Faces has no field flux"},
		{"wrong field kind", func(m *ir.Machine, _ *ParallelLoop) {
			cells := region.New("Cells", 2)
			cells.AddIndexField("res")
			m.AddRegion(cells)
		}, isStore, "cannot store to index field res"},
		{"unknown store op", func(_ *ir.Machine, pl *ParallelLoop) {
			for _, s := range pl.Loop.Stmts {
				if st, ok := s.(*ir.Store); ok {
					st.Op = "%="
				}
			}
		}, isStore, `unknown reduction operator "%="`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plans, sol, priv := compile(t, reduceSrc, false)
			pl := Build(plans, sol, priv)[0]
			faces := region.New("Faces", 4)
			faces.AddIndexField("c1")
			faces.AddScalarField("flux")
			copy(faces.Index("c1"), []int64{0, 0, 1, 1})
			cells := region.New("Cells", 2)
			cells.AddScalarField("res")
			m := ir.NewMachine().AddRegion(faces).AddRegion(cells)
			parts := map[string]*region.Partition{}
			for _, sym := range pl.Symbols() {
				parent := faces
				for _, info := range pl.Access {
					if info.Sym == sym && info.Region == "Cells" {
						parent = cells
					}
				}
				parts[sym] = region.NewPartition(sym, parent, []geometry.IndexSet{parent.Space()})
			}
			tc.edit(m, pl)
			var stmt ir.Stmt
			for _, s := range pl.Loop.Stmts {
				if tc.stmt(s) {
					stmt = s
				}
			}
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return RunLaunch(m, parts, pl)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), stmt.String()) {
				t.Fatalf("err = %v, want an error naming %q with %q", err, stmt, tc.want)
			}
		})
	}
}

func TestExecutorReductionBufferMerge(t *testing.T) {
	// Two tasks reduce into the same cell; the buffer must merge both
	// contributions exactly once.
	plans, sol, priv := compile(t, reduceSrc, false)
	pl := Build(plans, sol, priv)[0]

	faces := region.New("Faces", 4)
	faces.AddIndexField("c1")
	faces.AddScalarField("flux")
	cells := region.New("Cells", 2)
	cells.AddScalarField("res")
	copy(faces.Index("c1"), []int64{0, 0, 0, 1})
	copy(faces.Scalar("flux"), []float64{1, 2, 4, 8})
	m := ir.NewMachine().AddRegion(faces).AddRegion(cells)

	parts := map[string]*region.Partition{
		// Tasks split faces 0..1 / 2..3; both touch cell 0.
		pl.IterSym: region.NewPartition("iter", faces, []geometry.IndexSet{
			geometry.Range(0, 2), geometry.Range(2, 4),
		}),
	}
	full := []geometry.IndexSet{geometry.Range(0, 2), geometry.Range(0, 2)}
	fullFaces := []geometry.IndexSet{geometry.Range(0, 4), geometry.Range(0, 4)}
	for _, sym := range pl.Symbols()[1:] {
		var parent *region.Region
		for _, info := range pl.Access {
			if info.Sym == sym {
				parent = m.Regions[info.Region]
			}
		}
		if parent == cells {
			parts[sym] = region.NewPartition(sym, cells, full)
		} else {
			parts[sym] = region.NewPartition(sym, faces, fullFaces)
		}
	}
	if err := RunLaunch(m, parts, pl); err != nil {
		t.Fatal(err)
	}
	if got := cells.Scalar("res"); got[0] != 7 || got[1] != 8 {
		t.Errorf("res = %v, want [7 8]", got)
	}
}
