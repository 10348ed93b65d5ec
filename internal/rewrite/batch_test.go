package rewrite_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"autopart/internal/apps/apputil"
	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/gen"
	"autopart/internal/geometry"
	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// The tests here hold RunShard to RunShardElements, the element-at-a-time
// path, bit for bit: the same error, or the same private writes and
// reduction buffers, values and bitmaps. The apps and the generator fill
// scalars with small integers, whose float sums come out exact in any
// order, so every machine is first refilled with non-integer values of
// mixed magnitude: then a fold done out of (iteration, statement) order
// shows as a different bit pattern.

// refill returns a copy of m whose scalar fields hold seeded non-integer
// values between 1e-3 and 1e9 in magnitude, of either sign.
func refill(m *ir.Machine, seed int64) *ir.Machine {
	out := m.Clone()
	names := make([]string, 0, len(out.Regions))
	for name := range out.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	for _, name := range names {
		r := out.Regions[name]
		for _, f := range r.FieldNames() {
			if k, _ := r.FieldKindOf(f); k != region.ScalarField {
				continue
			}
			data := r.Scalar(f)
			for i := range data {
				data[i] = (rng.Float64() + 0.1) * math.Pow(10, float64(rng.Intn(13)-3))
				if rng.Intn(2) == 0 {
					data[i] = -data[i]
				}
			}
		}
	}
	return out
}

// sameShard runs color of pl both ways against m and reports the first
// difference, or "" if there is none.
func sameShard(m *ir.Machine, parts map[string]*region.Partition, pl *rewrite.ParallelLoop, color int) string {
	got, gotErr := rewrite.RunShard(m, parts, pl, color)
	want, wantErr := rewrite.RunShardElements(m, parts, pl, color)
	return sameResult("element-at-a-time", got, want, gotErr, wantErr)
}

// sameResult compares two shard results, bit for bit, and their errors
// by text; ref names where want came from.
func sameResult(ref string, got, want *rewrite.ShardResult, gotErr, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, %s %v", gotErr, ref, wantErr)
		}
		return ""
	}
	if d := sameRuns(ref, "scalars", got.Scalars, want.Scalars, func(r *rewrite.Run[float64]) [][2]uint64 { return runBits(r, math.Float64bits) }); d != "" {
		return d
	}
	if d := sameRuns(ref, "indexes", got.Indexes, want.Indexes, func(r *rewrite.Run[int64]) [][2]uint64 {
		return runBits(r, func(v int64) uint64 { return uint64(v) })
	}); d != "" {
		return d
	}
	for k, w := range want.Reductions {
		if g := got.Reductions[k]; g != nil && g.Op != w.Op {
			return fmt.Sprintf("reductions %s.%s: operator %s, %s %s", k.Region, k.Field, g.Op, ref, w.Op)
		}
	}
	return sameRuns(ref, "reductions", got.Reductions, want.Reductions, func(b *rewrite.ReduceBuffer) [][2]uint64 {
		return runBits(&b.Run, math.Float64bits)
	})
}

// runBits lists the (element, value bits) pairs r holds, ascending.
func runBits[V float64 | int64](r *rewrite.Run[V], bits func(V) uint64) [][2]uint64 {
	var out [][2]uint64
	r.EachRun(func(lo, _ int64, vals []V) bool {
		for i, v := range vals {
			out = append(out, [2]uint64{uint64(lo + int64(i)), bits(v)})
		}
		return true
	})
	return out
}

func sameRuns[R any](ref, what string, got, want map[rewrite.FieldKey]R, bits func(R) [][2]uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d fields, %s %d", what, len(got), ref, len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("%s: no %s.%s", what, k.Region, k.Field)
		}
		gb, wb := bits(g), bits(w)
		if len(gb) != len(wb) {
			return fmt.Sprintf("%s %s.%s: %d elements, %s %d", what, k.Region, k.Field, len(gb), ref, len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				return fmt.Sprintf("%s %s.%s: element %d holds bits %#x, %s element %d holds %#x",
					what, k.Region, k.Field, gb[i][0], gb[i][1], ref, wb[i][0], wb[i][1])
			}
		}
	}
	return ""
}

// sameProgram holds every shard of every launch of prog, against its
// refilled machine, to the element-at-a-time path; it returns how many
// shards ran batched and how many there were.
func sameProgram(t *testing.T, name string, prog *exec.Program, seed int64) (batched, shards int) {
	t.Helper()
	m := refill(prog.Machine, seed)
	for i, task := range prog.Plan.Tasks {
		safe := rewrite.BatchSafe(task.Loop)
		for color := 0; color < prog.Parts[task.Loop.IterSym].NumSubs(); color++ {
			shards++
			if safe {
				batched++
			}
			if d := sameShard(m, prog.Parts, task.Loop, color); d != "" {
				t.Errorf("%s: launch %d, color %d: %s", name, i, color, d)
				return
			}
		}
	}
	return batched, shards
}

// builtin is one builtin program, made executable.
type builtin struct {
	name string
	prog *exec.Program
}

// builtins makes every builtin program executable at the small
// configurations on nodes nodes.
func builtins(t *testing.T, nodes int) []builtin {
	t.Helper()
	small := circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
	apps := []struct {
		name  string
		src   string
		build func(*autopart.Compiled) (*exec.Program, error)
	}{
		{"stencil", stencil.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 4}, c, nodes)
		}},
		{"circuit", circuit.Source, func(c *autopart.Compiled) (*exec.Program, error) {
			return circuit.Executable(small, c, nodes, false)
		}},
		{"circuit-hint", circuit.HintSource, func(c *autopart.Compiled) (*exec.Program, error) {
			return circuit.Executable(small, c, nodes, true)
		}},
		{"spmv", spmv.Source, func(c *autopart.Compiled) (*exec.Program, error) {
			return spmv.Executable(spmv.Config{RowsPerNode: 128, NnzPerRow: 8}, c, nodes)
		}},
		{"miniaero", miniaero.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return miniaero.Executable(miniaero.Config{DX: 4, DY: 4, DZ: 4}, c, nodes)
		}},
		{"pennant", pennant.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return pennant.Executable(pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}, c, nodes, 0)
		}},
		{"pennant-h2", pennant.HintSource(2), func(c *autopart.Compiled) (*exec.Program, error) {
			return pennant.Executable(pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}, c, nodes, 2)
		}},
	}
	out := make([]builtin, len(apps))
	for i, a := range apps {
		c, err := autopart.Compile(a.src, autopart.Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		prog, err := a.build(c)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		out[i] = builtin{a.name, prog}
	}
	return out
}

// generated makes the first step of each gen.Small seed in [0, 400) that
// compiles executable, and calls fn with it.
func generated(t *testing.T, fn func(seed int64, prog *exec.Program)) {
	t.Helper()
	for seed := int64(0); seed < 400; seed++ {
		sc := gen.Generate(seed, gen.Small)
		c, err := autopart.Compile(sc.Src, autopart.Options{})
		if err != nil {
			continue
		}
		m, external, owners, err := gen.BuildMachine(sc.Prog, sc.Spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		auto, err := apputil.InstantiateAuto(c, m, sc.Spec.Nodes, external)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fn(seed, &exec.Program{Machine: m, Plan: auto.Plan, Parts: auto.Parts, Owners: owners})
	}
}

// TestRunShardBatchedMatchesElements runs every shard of every builtin
// program at the small configurations on 3 nodes both ways.
func TestRunShardBatchedMatchesElements(t *testing.T) {
	for i, a := range builtins(t, 3) {
		batched, shards := sameProgram(t, a.name, a.prog, int64(i))
		t.Logf("%s: %d of %d shards batched", a.name, batched, shards)
		if a.name != "spmv" && batched == 0 {
			t.Errorf("%s: no shard ran batched", a.name)
		}
	}
}

// TestRunShardBatchedMatchesElementsGenerated runs every shard of the
// first step of gen.Small seeds 0–399 both ways.
func TestRunShardBatchedMatchesElementsGenerated(t *testing.T) {
	batched, shards := 0, 0
	generated(t, func(seed int64, prog *exec.Program) {
		b, n := sameProgram(t, fmt.Sprintf("seed %d", seed), prog, seed)
		batched, shards = batched+b, shards+n
	})
	t.Logf("%d of %d shards batched", batched, shards)
	if batched == 0 {
		t.Error("no shard ran batched")
	}
}

// TestRunShardBatchedFoldOrder runs a body whose two guarded and two
// buffered reductions, from different statements and under a branch,
// hit the same elements from neighbouring iterations of one batch:
// element e takes iteration 2e's first contribution and iteration
// 2e-1's second. Committing a batch statement by statement instead of
// lane by lane folds them in another order, which the refilled values
// turn into other bits.
func TestRunShardBatchedFoldOrder(t *testing.T) {
	const n = 1000
	r := region.New("R", n)
	for _, f := range []string{"a", "b", "g", "u"} {
		r.AddScalarField(f)
	}
	r.AddIndexField("p")
	r.AddIndexField("q")
	for i := range int64(n) {
		r.Index("p")[i], r.Index("q")[i] = i/2, (i+1)/2
	}
	m := refill(ir.NewMachine().AddRegion(r), 7)

	v := func(name string) ir.ScalarExpr { return ir.VarExpr{Name: name} }
	reduce := func(field, idx, val string) *ir.Store {
		return &ir.Store{Region: "R", Field: field, Idx: idx, Op: lang.OpAdd, Rhs: v(val)}
	}
	body := []ir.Stmt{
		&ir.Load{Var: "x", Region: "R", Field: "a", Idx: "i"},
		&ir.Load{Var: "y", Region: "R", Field: "b", Idx: "i"},
		&ir.Load{Var: "pi", Region: "R", Field: "p", Idx: "i"},
		&ir.Load{Var: "qi", Region: "R", Field: "q", Idx: "i"},
		reduce("g", "pi", "x"),
		&ir.IfCmp{Op: "!=", L: v("x"), R: ir.Const{V: 0}, Then: []ir.Stmt{reduce("u", "pi", "y")}},
		reduce("g", "qi", "y"),
		reduce("u", "qi", "x"),
	}
	pl := &rewrite.ParallelLoop{
		Loop:    &ir.Loop{Var: "i", Region: "R", Stmts: body},
		IterSym: "I",
		Access:  map[ir.Stmt]*rewrite.AccessInfo{},
	}
	var plan func([]ir.Stmt)
	plan = func(stmts []ir.Stmt) {
		for _, st := range stmts {
			switch st := st.(type) {
			case *ir.Load:
				pl.Access[st] = &rewrite.AccessInfo{Sym: "I", Kind: infer.ReadAccess, Region: "R", Field: st.Field, Centered: true}
			case *ir.Store:
				sym := map[string]string{"g": "G", "u": "U"}[st.Field]
				pl.Access[st] = &rewrite.AccessInfo{Sym: sym, Kind: infer.ReduceAccess, Op: st.Op, Region: "R", Field: st.Field,
					Guarded: st.Field == "g", Buffered: st.Field == "u"}
			case *ir.IfCmp:
				plan(st.Then)
			}
		}
	}
	plan(body)
	if !rewrite.BatchSafe(pl) {
		t.Fatal("the body is not batch-safe")
	}
	// Two colors of n/2 iterations each, which reach targets [0, n/4]
	// and [n/4, n/2]: U covers each color's targets, G only part of them,
	// so some guarded contributions belong to no color.
	parts := map[string]*region.Partition{
		"I": region.NewPartition("I", r, []geometry.IndexSet{geometry.Range(0, n/2), geometry.Range(n/2, n)}),
		"U": region.NewPartition("U", r, []geometry.IndexSet{geometry.Range(0, n/4+1), geometry.Range(n/4, n/2+1)}),
		"G": region.NewPartition("G", r, []geometry.IndexSet{geometry.Range(0, n/5), geometry.Range(n/5*2, n/2)}),
	}
	for color := range 2 {
		if d := sameShard(m, parts, pl, color); d != "" {
			t.Errorf("color %d: %s", color, d)
		}
	}
}
