package rewrite_test

import (
	"fmt"
	"testing"

	"autopart/internal/exec"
	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
)

// The tests here hold RunShard on a machine that holds only what a color
// touches to RunShard on the whole machine, bit for bit: a distributed
// node copies, per region, the union of the subregions it touches, and
// the shard looks each element up in that union through a cursor. Data
// is refilled with non-integer values first, as in batch_test.go.

// windowed returns a copy of m whose every region holds only the union
// of color's subregions of pl's access plans on it, and the most
// intervals any of those windows has.
func windowed(m *ir.Machine, parts map[string]*region.Partition, pl *rewrite.ParallelLoop, color int) (*ir.Machine, int) {
	sets := map[string][]geometry.IndexSet{}
	for _, a := range pl.Access {
		if p := parts[a.Sym]; p != nil {
			sets[a.Region] = append(sets[a.Region], p.Sub(color))
		}
	}
	out := &ir.Machine{Regions: make(map[string]*region.Region, len(m.Regions)), Funcs: m.Funcs, Partitions: m.Partitions}
	runs := 0
	for name, r := range m.Regions {
		set := geometry.UnionAll(sets[name]).Intersect(r.Space())
		runs = max(runs, set.NumIntervals())
		out.Regions[name] = r.CopyWindow(set)
	}
	return out, runs
}

// sameWindowedProgram holds every shard of every launch of prog, against
// its refilled machine, to the same shard on a windowed copy of it; it
// returns the most intervals any window held.
func sameWindowedProgram(t *testing.T, name string, prog *exec.Program, seed int64) (runs int) {
	t.Helper()
	m := refill(prog.Machine, seed)
	for i, task := range prog.Plan.Tasks {
		for color := 0; color < prog.Parts[task.Loop.IterSym].NumSubs(); color++ {
			w, n := windowed(m, prog.Parts, task.Loop, color)
			runs = max(runs, n)
			got, gotErr := rewrite.RunShard(w, prog.Parts, task.Loop, color)
			want, wantErr := rewrite.RunShard(m, prog.Parts, task.Loop, color)
			if d := sameResult("whole machine", got, want, gotErr, wantErr); d != "" {
				t.Errorf("%s: launch %d, color %d: %s", name, i, color, d)
				return runs
			}
		}
	}
	return runs
}

// TestRunShardWindowedMatchesWhole runs every shard of every builtin
// program at the small configurations on 8 nodes against both machines.
// Circuit, MiniAero and PENNANT then hold several intervals of a region.
func TestRunShardWindowedMatchesWhole(t *testing.T) {
	for i, a := range builtins(t, 8) {
		runs := sameWindowedProgram(t, a.name, a.prog, int64(i))
		t.Logf("%s: windows of up to %d intervals", a.name, runs)
		switch a.name {
		case "circuit", "circuit-hint", "miniaero", "pennant", "pennant-h2":
			if runs < 2 {
				t.Errorf("%s: every window is one interval; the test places nothing across runs", a.name)
			}
		}
	}
}

// TestRunShardWindowedMatchesWholeGenerated runs every shard of the first
// step of gen.Small seeds 0–399 against both machines.
func TestRunShardWindowedMatchesWholeGenerated(t *testing.T) {
	most := 0
	generated(t, func(seed int64, prog *exec.Program) {
		most = max(most, sameWindowedProgram(t, fmt.Sprintf("seed %d", seed), prog, seed))
	})
	t.Logf("windows of up to %d intervals", most)
	if most < 2 {
		t.Error("every window is one interval; the test places nothing across runs")
	}
}
