// Command bench is the benchmark of this repository: seven named
// closed-loop workloads over the compiler, the compile service, the
// cost simulator and the distributed executor, each run in its own
// process, printing every metric by name with its unit and checking the
// program's outputs. See README.md.
//
// Usage (through bench/run.sh, which builds into .bench_build/):
//
//	bench run -workload <name> [-seed N] [-seconds S] [-trace 1]
//	bench run -all [-repeat N] [-out runs.json]
//	bench compare A.json B.json
//	bench capture
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"autopart/internal/exec/cluster"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the time the
// workloads' calibrated round counts took at the commit that added the
// benchmark.
const defaultSeconds = 10

// gitRev is the commit the binary was built from; run.sh sets it at link
// time where the checkout is a git repository.
var gitRev = "unknown"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args)
	case "compare":
		err = cmdCompare(args)
	case "capture":
		err = cmdCapture(args)
	case "worker":
		// The hidden worker mode cluster.Spawn re-execs for the
		// cluster.spawn_run_ms probe.
		err = cluster.WorkerMain("127.0.0.1:0", os.Stdout, cluster.WorkerOptions{})
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run -workload <name> [-seed N] [-seconds S] [-trace 1]")
	fmt.Fprintln(os.Stderr, "       bench run -all [-repeat N] [-out runs.json]")
	fmt.Fprintln(os.Stderr, "       bench compare A.json B.json")
	fmt.Fprintln(os.Stderr, "       bench capture")
	os.Exit(2)
}

// errFailedChecks is returned when a run's output checks failed; the
// result has been printed by then.
var errFailedChecks = errors.New("output checks failed")

// header records where and how a run set was measured.
type header struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// runSet is the file `bench run -all` writes and `bench compare` reads.
type runSet struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func newHeader(seed int64, seconds int) header {
	return header{GitRev: gitRev, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run in this process")
	all := fs.Bool("all", false, "run every workload in sequence, one child process each")
	repeat := fs.Int("repeat", 1, "with -all: how many times to run the sequence")
	out := fs.String("out", ".bench_build/runs.json", "with -all: file the run set is written to")
	seed := fs.Int64("seed", 1, "seed all inputs are made from")
	seconds := fs.Int("seconds", defaultSeconds, "scales the workload's round count: 10 runs the calibrated count")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	_ = fs.Parse(args)
	if fs.NArg() > 0 || *trace != 0 && *trace != 1 || *seconds < 1 || *repeat < 1 {
		usage()
	}

	if *all {
		return runAll(*repeat, *out, *seed, *seconds, *trace)
	}
	w := workloadByName(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	res, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		return err
	}
	h := newHeader(*seed, *seconds)
	fmt.Printf("# %s  seed=%d  git=%s  %s  num_cpu=%d  GOMAXPROCS=%d  trace=%d\n",
		w.name, h.Seed, h.GitRev, h.GoVersion, h.NumCPU, h.GOMAXPROCS, *trace)
	printMetrics(res.Metrics)
	// The whole result, which `run -all` collects, then the driver's line.
	if err := printJSON(res); err != nil {
		return err
	}
	line := driverLine{res.Correct, res.Attempted, res.Failed, project(res.Metrics, res.Traced)}
	if err := printJSON(line); err != nil {
		return err
	}
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}

// printMetrics prints every metric by name with its unit, in the order
// of the table.
func printMetrics(m metrics) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("%-28s %16.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runAll runs the workloads in sequence, each in a child process so that
// peak_rss_mb and the intern table are per workload, and writes the run
// set.
func runAll(repeat int, out string, seed int64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Header: newHeader(seed, seconds)}
	failed := false
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			args := []string{"run", "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
			var stdout bytes.Buffer
			cmd := osexec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// The child's last two lines are the whole result and the
			// driver's line.
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			if len(lines) < 2 {
				return fmt.Errorf("%s: no result line (%v)", w.name, runErr)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &res); err != nil {
				return fmt.Errorf("%s: no result line (%v): %w", w.name, runErr, err)
			}
			fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
			fmt.Printf("%-28s %16d of %d\n\n", "failed", res.Failed, res.Attempted)
			set.Runs = append(set.Runs, &res)
			failed = failed || !res.Correct
		}
	}
	if repeat > 1 {
		summarize(&set)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", out, len(set.Runs))
	if failed {
		return errFailedChecks
	}
	return nil
}
