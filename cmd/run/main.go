// Command run executes one of the builtin benchmark programs on the
// distributed SPMD executor (internal/exec): it compiles the program,
// solves its partitions for the requested node count, runs the task
// plan on that many goroutine-backed nodes with message-passing ghost
// exchange, verifies the result against the sequential executor, and
// prints the measured per-node communication statistics as JSON.
//
// Usage:
//
//	run -app circuit [-nodes 4] [-steps 2] [-transport inproc] [-size default] [-min-bytes 1] [-no-check]
//
// Apps: stencil, circuit, circuit-hint, spmv, miniaero, pennant-h2.
// Transports: inproc (default), tcp (loopback sockets with the compact
// wire encoding), flaky (inproc plus seeded random per-message latency,
// for chaos-testing delivery-order independence), proc (each node in
// its own OS process, bootstrapped by the internal/exec/cluster
// coordinator).
//
// -transport proc re-execs this binary as the worker (or the binary
// named by -node-bin, typically cmd/node). -crash-node N, with
// -crash-at-launch L, makes worker N exit abruptly when it first sends
// for launch L — the failure drill CI uses to assert a clean abort.
//
// A run that starts but fails (transport error, worker crash,
// divergence from the sequential reference) still prints the JSON
// report with its "error" field set, and exits nonzero.
//
// -size small selects the reduced per-node configurations the wide
// test matrix and the bench exec-wide workload use, making high node
// counts (and the race detector) affordable; the partition geometry and
// protocol paths are the same as at default size.
// -min-bytes N exits nonzero unless at least N bytes of ghost/reduction
// traffic moved (CI smoke tests assert nonzero traffic this way).
// -no-check skips the bit-identity comparison against the sequential
// reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/exec/cluster"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// builders maps app names to program constructors. Each compiles the
// app's source and instantiates it at the requested node count, at
// either the paper-scale default configuration or the reduced "small"
// one (same geometry and protocol paths, far fewer elements).
var builders = map[string]func(nodes int, small bool) (*exec.Program, error){
	"stencil": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(stencil.Source(), autopart.Options{})
		if err != nil {
			return nil, err
		}
		cfg := stencil.DefaultConfig()
		if small {
			cfg = stencil.Config{Width: 128, RowsPerNode: 4}
		}
		return stencil.Executable(cfg, c, n)
	},
	"circuit": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(circuit.Source, autopart.Options{})
		if err != nil {
			return nil, err
		}
		return circuit.Executable(circuitConfig(small), c, n, false)
	},
	"circuit-hint": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(circuit.HintSource, autopart.Options{})
		if err != nil {
			return nil, err
		}
		return circuit.Executable(circuitConfig(small), c, n, true)
	},
	"spmv": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(spmv.Source, autopart.Options{})
		if err != nil {
			return nil, err
		}
		cfg := spmv.DefaultConfig()
		if small {
			cfg = spmv.Config{RowsPerNode: 128, NnzPerRow: 8}
		}
		return spmv.Executable(cfg, c, n)
	},
	"miniaero": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(miniaero.Source(), autopart.Options{})
		if err != nil {
			return nil, err
		}
		cfg := miniaero.DefaultConfig()
		if small {
			cfg = miniaero.Config{DX: 4, DY: 4, DZ: 4}
		}
		return miniaero.Executable(cfg, c, n)
	},
	"pennant-h2": func(n int, small bool) (*exec.Program, error) {
		c, err := autopart.Compile(pennant.HintSource(2), autopart.Options{})
		if err != nil {
			return nil, err
		}
		cfg := pennant.DefaultConfig()
		if small {
			cfg = pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}
		}
		return pennant.Executable(cfg, c, n, 2)
	},
}

func circuitConfig(small bool) circuit.Config {
	if small {
		return circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
	}
	return circuit.DefaultConfig()
}

// nodeStatsJSON is sim.NodeStats with JSON names (ComputeUnits is
// omitted: the executor measures communication, not compute).
type nodeStatsJSON struct {
	Node        int     `json:"node"`
	BufferElems float64 `json:"buffer_elems,omitempty"`
	BytesIn     float64 `json:"bytes_in"`
	BytesOut    float64 `json:"bytes_out"`
	MsgsIn      int     `json:"msgs_in"`
	MsgsOut     int     `json:"msgs_out"`
	FragsIn     int     `json:"frags_in"`
	FragsOut    int     `json:"frags_out"`
	WallNS      int64   `json:"wall_ns"`
	ComputeNS   int64   `json:"compute_ns"`
	OverlapNS   int64   `json:"overlap_ns"`
}

type launchJSON struct {
	Name       string  `json:"name"`
	TotalBytes float64 `json:"total_bytes"`
	TotalMsgs  int     `json:"total_msgs"`
	// OverlapRatio is compute time spent while at least one expected
	// receive was still outstanding, over total compute time, across
	// the launch's nodes.
	OverlapRatio float64         `json:"overlap_ratio"`
	Nodes        []nodeStatsJSON `json:"nodes"`
}

type stepJSON struct {
	Step       int          `json:"step"`
	TotalBytes float64      `json:"total_bytes"`
	TotalMsgs  int          `json:"total_msgs"`
	Launches   []launchJSON `json:"launches"`
}

type reportJSON struct {
	App          string  `json:"app"`
	Nodes        int     `json:"nodes"`
	Steps        int     `json:"steps"`
	Transport    string  `json:"transport"`
	TotalBytes   float64 `json:"total_bytes"`
	TotalMsgs    int     `json:"total_msgs"`
	OverlapRatio float64 `json:"overlap_ratio"`
	Checked      bool    `json:"checked_vs_sequential"`
	// Error is set when the run started but failed — a deferred
	// transport socket error, a crashed worker process, or divergence
	// from the sequential reference — and the exit status is nonzero.
	Error   string     `json:"error,omitempty"`
	PerStep []stepJSON `json:"per_step,omitempty"`
}

func nodeRows(nodes []sim.NodeStats, times []exec.NodeTiming) []nodeStatsJSON {
	rows := make([]nodeStatsJSON, len(nodes))
	for j, ns := range nodes {
		rows[j] = nodeStatsJSON{
			Node:        j,
			BufferElems: ns.BufferElems,
			BytesIn:     ns.BytesIn,
			BytesOut:    ns.BytesOut,
			MsgsIn:      ns.MsgsIn,
			MsgsOut:     ns.MsgsOut,
			FragsIn:     ns.FragsIn,
			FragsOut:    ns.FragsOut,
			WallNS:      times[j].WallNS,
			ComputeNS:   times[j].ComputeNS,
			OverlapNS:   times[j].OverlapNS,
		}
	}
	return rows
}

// overlapRatio is overlapped compute over total compute (0 when no
// compute was measured).
func overlapRatio(overlapNS, computeNS int64) float64 {
	if computeNS <= 0 {
		return 0
	}
	return float64(overlapNS) / float64(computeNS)
}

func main() {
	app := flag.String("app", "", "builtin program to run (required)")
	nodes := flag.Int("nodes", 4, "number of executor nodes")
	steps := flag.Int("steps", 1, "main-loop iterations")
	transport := flag.String("transport", "inproc", "message transport: inproc, tcp, flaky, or proc")
	size := flag.String("size", "default", "app configuration: default (paper scale) or small (test scale)")
	minBytes := flag.Float64("min-bytes", 0, "fail unless at least this many bytes moved")
	noCheck := flag.Bool("no-check", false, "skip bit-identity check against the sequential executor")
	nodeBin := flag.String("node-bin", "", "proc transport: worker binary (default: re-exec this binary)")
	crashNode := flag.Int("crash-node", -1, "proc transport: worker to crash mid-run (failure drill)")
	crashAtLaunch := flag.Int("crash-at-launch", -1, "launch index at which -crash-node dies (worker mode: this worker's own crash point)")
	procWorker := flag.Bool("proc-worker", false, "internal: serve as a spawned worker process")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: control listen address")
	flag.Parse()

	if *procWorker {
		os.Exit(workerMode(*listen, *crashAtLaunch))
	}

	build, ok := builders[*app]
	if !ok {
		names := make([]string, 0, len(builders))
		for name := range builders {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "run: unknown -app %q (have %v)\n", *app, names)
		os.Exit(2)
	}

	var tf exec.TransportFactory
	if *transport != "proc" {
		var err error
		tf, err = exec.TransportByName(*transport)
		if err != nil {
			fatal(err)
		}
	}
	if *size != "default" && *size != "small" {
		fmt.Fprintf(os.Stderr, "run: unknown -size %q (have default, small)\n", *size)
		os.Exit(2)
	}
	prog, err := build(*nodes, *size == "small")
	if err != nil {
		fatal(err)
	}

	rep := reportJSON{
		App:       *app,
		Nodes:     *nodes,
		Steps:     *steps,
		Transport: *transport,
	}
	var res *exec.Result
	if *transport == "proc" {
		res, err = procRun(prog, *nodes, *steps, *nodeBin, *crashNode, *crashAtLaunch)
	} else {
		res, err = exec.Run(prog, exec.Config{Nodes: *nodes, Steps: *steps, Transport: tf})
	}
	if err != nil {
		failJSON(rep, err)
	}

	if !*noCheck {
		want, err := exec.RunSequentialReference(prog, *steps)
		if err != nil {
			failJSON(rep, fmt.Errorf("sequential reference: %w", err))
		}
		for _, name := range sortedRegionNames(want.Regions) {
			if same, diff := want.Regions[name].SameData(res.Machine.Regions[name]); !same {
				failJSON(rep, fmt.Errorf("region %s diverges from sequential executor: %s", name, diff))
			}
		}
	}

	rep.TotalBytes = res.TotalBytes()
	rep.TotalMsgs = res.TotalMsgs()
	rep.Checked = !*noCheck
	var totOverlap, totCompute int64
	for si, sc := range res.Steps {
		sj := stepJSON{Step: si, TotalBytes: sc.TotalBytes, TotalMsgs: sc.TotalMsgs}
		for _, lc := range sc.Launches {
			var ov, cp int64
			for _, nt := range lc.Times {
				ov += nt.OverlapNS
				cp += nt.ComputeNS
			}
			totOverlap += ov
			totCompute += cp
			sj.Launches = append(sj.Launches, launchJSON{
				Name:         lc.Name,
				TotalBytes:   lc.TotalBytes,
				TotalMsgs:    lc.TotalMsgs,
				OverlapRatio: overlapRatio(ov, cp),
				Nodes:        nodeRows(lc.Nodes, lc.Times),
			})
		}
		rep.PerStep = append(rep.PerStep, sj)
	}
	rep.OverlapRatio = overlapRatio(totOverlap, totCompute)

	emitJSON(rep)

	if rep.TotalBytes < *minBytes {
		fmt.Fprintf(os.Stderr, "run: moved %.0f bytes, below -min-bytes %.0f\n", rep.TotalBytes, *minBytes)
		os.Exit(1)
	}
}

// workerMode is the hidden -proc-worker entry point: the process the
// proc transport spawns when no -node-bin is given re-execs this same
// binary, so a single build serves both roles.
func workerMode(listen string, crashAtLaunch int) int {
	opts := cluster.WorkerOptions{
		CrashFn: func() { os.Exit(3) },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "run worker: "+format+"\n", args...)
		},
	}
	if crashAtLaunch >= 0 {
		opts.CrashAtLaunch = &crashAtLaunch
	}
	err := cluster.WorkerMain(listen, os.Stdout, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run worker: %v\n", err)
		return 1
	}
	return 0
}

// procRun executes prog with each node in its own worker process.
func procRun(prog *exec.Program, nodes, steps int, nodeBin string, crashNode, crashAtLaunch int) (*exec.Result, error) {
	var command []string
	if nodeBin != "" {
		command = []string{nodeBin}
	} else {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locate own binary for worker re-exec: %w", err)
		}
		command = []string{self, "-proc-worker"}
	}
	opts := cluster.SpawnOptions{Command: command}
	if crashNode >= 0 {
		if crashAtLaunch < 0 {
			crashAtLaunch = 0
		}
		opts.ExtraArgs = func(id int) []string {
			if id == crashNode {
				return []string{"-crash-at-launch", strconv.Itoa(crashAtLaunch)}
			}
			return nil
		}
	}
	return cluster.Spawn(prog, exec.Config{Nodes: nodes, Steps: steps}, opts)
}

func sortedRegionNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func emitJSON(rep reportJSON) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// failJSON renders the failure into the run's JSON report — so callers
// parsing stdout see the error, not just a silent nonzero exit — and
// exits nonzero.
func failJSON(rep reportJSON, err error) {
	rep.Error = err.Error()
	emitJSON(rep)
	fmt.Fprintf(os.Stderr, "run: %v\n", err)
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "run: %v\n", err)
	os.Exit(1)
}
