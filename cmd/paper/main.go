// Command paper regenerates the paper's evaluation (§6) and the §5
// ablations: Table 1's compile-time breakdown for each benchmark
// program, the weak-scaling curves of Fig. 14a–e on the simulated
// cluster, and the two §5 optimizations switched on and off. Binary
// generation is not reproduced (no GPU backend) and is reported as n/a.
//
// Usage:
//
//	paper [-fig table1|14a|14b|14c|14d|14e|ablations|all] [-nodes 1,2,4,...]
//
// -nodes is the node-count sweep of the Fig. 14 curves; Table 1 and the
// ablations run at fixed sizes. Everything but Table 1's timings is
// deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sections lists what -fig accepts, in the order -fig all prints them.
var sections = []string{"table1", "14a", "14b", "14c", "14d", "14e", "ablations"}

// run is the driver body, factored out of main so tests can exercise
// the full command in-process with captured streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figFlag := fs.String("fig", "all", "section to regenerate: "+strings.Join(sections, ", ")+", or all")
	nodesFlag := fs.String("nodes", "1,2,4,8,16,32,64", "comma-separated node counts of the Fig. 14 sweeps")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintln(stderr, "paper:", err)
		return 1
	}
	ids := sections
	if *figFlag != "all" {
		if !slices.Contains(sections, *figFlag) {
			fmt.Fprintf(stderr, "paper: unknown figure %q\n", *figFlag)
			return 1
		}
		ids = []string{*figFlag}
	}
	for _, id := range ids {
		out, err := section(id, nodes)
		if err != nil {
			fmt.Fprintf(stderr, "paper: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
}

// section regenerates one -fig section as text; the Fig. 14 curves run
// their weak-scaling experiment over the node sweep.
func section(id string, nodes []int) (string, error) {
	var fig sim.Figure
	var err error
	switch id {
	case "table1":
		return table1()
	case "ablations":
		return ablations()
	case "14a":
		cfg := spmv.DefaultConfig()
		model := sim.ModelFor(float64(cfg.RowsPerNode*cfg.NnzPerRow), spmv.RealIterSeconds)
		fig, err = spmv.Figure14a(cfg, model, nodes)
	case "14b":
		cfg := stencil.DefaultConfig()
		model := sim.ModelFor(float64(cfg.PointsPerNode())*9, stencil.RealIterSeconds)
		fig, err = stencil.Figure14b(cfg, model, nodes)
	case "14c":
		cfg := miniaero.DefaultConfig()
		model := sim.ModelFor(float64(cfg.CellsPerNode())*30, miniaero.RealIterSeconds)
		fig, err = miniaero.Figure14c(cfg, model, nodes)
	case "14d":
		cfg := circuit.DefaultConfig()
		model := sim.ModelFor(float64(cfg.WiresPerCluster)*10, circuit.RealIterSeconds)
		fig, err = circuit.Figure14d(cfg, model, nodes)
	case "14e":
		cfg := pennant.DefaultConfig()
		model := sim.ModelFor(float64(cfg.ZonesPerPiece)*4*20, pennant.RealIterSeconds)
		fig, err = pennant.Figure14e(cfg, model, nodes)
	}
	return fig.Render(), err
}

// table1 compiles each benchmark program and prints the compile-time
// breakdown plus the number of auto-parallelized loops.
func table1() (string, error) {
	type row struct {
		name, src string
		timing    autopart.Timing
		loops     int
	}
	rows := []row{
		{name: "SpMV", src: spmv.Source},
		{name: "Stencil", src: stencil.Source()},
		{name: "Circuit", src: circuit.Source},
		{name: "MiniAero", src: miniaero.Source()},
		{name: "PENNANT", src: pennant.Source()},
	}
	for i := range rows {
		r := &rows[i]
		// Warm once, then measure the best of three runs (compile times
		// jitter at the microsecond scale).
		for n := 0; n < 4; n++ {
			c, err := autopart.Compile(r.src, autopart.Options{})
			if err != nil {
				return "", fmt.Errorf("%s: %w", r.name, err)
			}
			r.loops = len(c.Parallel)
			if n == 1 || (n > 1 && c.Timing.Total() < r.timing.Total()) {
				r.timing = c.Timing
			}
		}
	}

	var sb strings.Builder
	sb.WriteString("Table 1: Compilation time breakdown\n")
	line := func(label string, f func(row) string) {
		fmt.Fprintf(&sb, "%-22s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, " %10s", f(r))
		}
		sb.WriteByte('\n')
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
	line("", func(r row) string { return r.name })
	line("Constraint inference", func(r row) string { return ms(r.timing.Inference) })
	line("Constraint solver", func(r row) string { return ms(r.timing.Solver) })
	line("Code rewrite", func(r row) string { return ms(r.timing.Rewrite) })
	line("Binary generation", func(row) string { return "n/a" })
	line("Total", func(r row) string { return ms(r.timing.Total()) })
	line("Num. parallel loops", func(r row) string { return strconv.Itoa(r.loops) })
	return sb.String(), nil
}

// ablations measures the simulated per-node throughput of two programs
// with one §5 optimization on and off: MiniAero without the §5.1
// relaxation gets its reduction buffers back, and Circuit+Hint without
// §5.2 private sub-partitions buffers whole subregions.
func ablations() (string, error) {
	aero := miniaero.Config{DX: 8, DY: 8, DZ: 16}
	aeroModel := sim.ModelFor(float64(aero.CellsPerNode())*30, miniaero.RealIterSeconds)
	circ := circuit.Config{WiresPerCluster: 1000, NodesPerCluster: 500, SharedFraction: 0.02, CrossFraction: 0.2}
	circModel := sim.ModelFor(float64(circ.WiresPerCluster)*10, circuit.RealIterSeconds)
	experiments := []struct {
		label, unit string
		nodes       int
		src         string
		off         autopart.Options
		point       func(*autopart.Compiled, int) (sim.Point, error)
	}{
		{"MiniAero, §5.1 relaxation", "cells/s", 8, miniaero.Source(),
			autopart.Options{DisableRelaxation: true},
			func(c *autopart.Compiled, n int) (sim.Point, error) { return miniaero.AutoPoint(aero, aeroModel, c, n) }},
		{"Circuit+Hint, §5.2 private sub-partitions", "wires/s", 16, circuit.HintSource,
			autopart.Options{DisablePrivateSubPartitions: true},
			func(c *autopart.Compiled, n int) (sim.Point, error) {
				return circuit.AutoPoint(circ, circModel, c, n, true)
			}},
	}

	var sb strings.Builder
	sb.WriteString("Ablations (§5): throughput per node with each optimization on and off\n")
	fmt.Fprintf(&sb, "%-42s %5s %12s %12s %7s  %s\n", "", "nodes", "on", "off", "on/off", "unit")
	for _, e := range experiments {
		var tput [2]float64
		for i, opts := range []autopart.Options{{}, e.off} {
			c, err := autopart.Compile(e.src, opts)
			if err != nil {
				return "", fmt.Errorf("%s: %w", e.label, err)
			}
			p, err := e.point(c, e.nodes)
			if err != nil {
				return "", fmt.Errorf("%s: %w", e.label, err)
			}
			tput[i] = p.Throughput
		}
		fmt.Fprintf(&sb, "%-42s %5d %12.0f %12.0f %6.2fx  %s\n", e.label, e.nodes, tput[0], tput[1], tput[0]/tput[1], e.unit)
	}
	return sb.String(), nil
}

func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
