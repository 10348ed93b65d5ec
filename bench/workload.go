package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what a workload is given to make its inputs from.
type env struct {
	seed int64
	// rounds is how many rounds the run makes after the warm-up, for a
	// workload that has to make an input per round in advance.
	rounds int
	// small selects the smoke-test scale: reduced sizes and node counts.
	// Pinned communication counters apply to the calibrated scale only.
	small bool
	// corrupt breaks the expected outputs, so every check must fail; the
	// smoke test uses it to show that a mismatch is counted.
	corrupt bool
}

// rng returns a generator for one named purpose, so adding a draw to one
// part of a workload does not shift the inputs of another.
func (e *env) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// workload is one named closed-loop workload. Its callers wait for each
// reply before they send the next request.
type workload struct {
	name string
	// rounds is the calibrated length of a run: the rounds that, with
	// their checks, took 10 s at the commit that added the benchmark. A run is a fixed number of
	// rounds, never a time limit, so two commits do identical work;
	// -seconds scales the count.
	rounds int
	// setups is how many times a run sets up; setup_s is the median.
	// Cheap set-ups are the noisy ones and get the most repeats.
	setups int
	// prepare makes the seed-derived inputs and the expected outputs.
	// It is input generation, not the system under test, and is not
	// timed.
	prepare func(e *env) (instance, error)
}

// instance is a prepared workload.
type instance interface {
	// setup brings the system from nothing to ready for the first
	// round: compiling sources, building machines, evaluating
	// partitions, seeding services. It may be called again; each call
	// starts over. The runner adds one warm-up round and times both as
	// setup_s.
	setup() error
	// round runs one pass over the input list. r is -1 for the warm-up.
	// It keeps its outputs for check and records nothing else.
	round(r int, t *tracer, parent int)
	// check verifies the outputs of the last round, outside any round's
	// time, and returns the operations attempted and failed.
	check(r int) (attempted, failed int)
	// probe measures, between traced rounds, layers that cannot be
	// timed inside a round without changing the program.
	probe(t *tracer)
	// report adds the workload's counts and per-layer metrics.
	report(m metrics, rounds int, t *tracer)
}

var workloads = []*workload{
	{name: "compile-cold", rounds: 145, setups: 9, prepare: prepareCompileCold},
	{name: "service-warm", rounds: 220, setups: 9, prepare: prepareServiceWarm},
	{name: "edit-recompile", rounds: 1100, setups: 5, prepare: prepareEditRecompile},
	{name: "partition-sim", rounds: 22, setups: 3, prepare: preparePartitionSim},
	{name: "exec-halo", rounds: 9, setups: 3, prepare: func(e *env) (instance, error) { return prepareExec(e, "exec-halo") }},
	{name: "exec-wide", rounds: 15, setups: 3, prepare: func(e *env) (instance, error) { return prepareExec(e, "exec-wide") }},
	{name: "exec-wire", rounds: 20, setups: 3, prepare: func(e *env) (instance, error) { return prepareExec(e, "exec-wire") }},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOpts selects how one workload runs.
type runOpts struct {
	seed int64
	// seconds scales the workload's calibrated round count: 10 runs it
	// as calibrated.
	seconds int
	traced  bool
	// small and corrupt are the smoke test's: small runs three rounds at
	// reduced sizes and node counts and writes no spans.
	small   bool
	corrupt bool
}

// roundsFor is the number of rounds a run makes after the warm-up. In a
// traced run one in untracedEvery of them is a base round, run untraced.
func roundsFor(w *workload, o runOpts) int {
	if o.small {
		return smallRounds
	}
	return max(smallRounds, (w.rounds*o.seconds+defaultSeconds/2)/defaultSeconds)
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

const (
	// smallRounds is the length of a smoke-test run and the shortest run:
	// one base round and two counted ones when traced.
	smallRounds = 3
	smallSetups = 2
	// untracedEvery: in a traced run, one round in this many runs with
	// tracing off, as the base of trace.overhead_ratio. The two kinds
	// alternate because a workload's rounds may drift as its caches fill.
	untracedEvery = 3
)

func runWorkload(w *workload, o runOpts) (*result, error) {
	total := roundsFor(w, o)
	e := &env{seed: o.seed, rounds: total, small: o.small, corrupt: o.corrupt}
	inst, err := w.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: o.seed, Traced: o.traced, Metrics: metrics{}}
	count := func(a, f int) { res.Attempted += a; res.Failed += f }

	setups := w.setups
	if o.small {
		setups = smallSetups
	}
	var setupS []float64
	for len(setupS) < setups {
		start := time.Now()
		if err := inst.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		inst.round(-1, nil, -1)
		setupS = append(setupS, time.Since(start).Seconds())
		count(inst.check(-1))
	}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var durs, base []time.Duration // timed rounds; untraced rounds of a traced run
	var before, after runtime.MemStats
	var alloc, gcPause uint64
	var gcCount uint32
	for r := 0; r < total; r++ {
		// counted is r for a round whose outputs and timing count, and
		// -1 for a base round of a traced run.
		t, counted := tr, r
		if o.traced && r%untracedEvery == 0 {
			t, counted = nil, -1
		}
		runtime.ReadMemStats(&before)
		rs := time.Now()
		id := t.begin("round", -1, r)
		inst.round(counted, t, id)
		t.end(id)
		d := time.Since(rs)
		runtime.ReadMemStats(&after)
		if counted < 0 {
			base = append(base, d)
		} else {
			durs = append(durs, d)
			alloc += after.TotalAlloc - before.TotalAlloc
			gcCount += after.NumGC - before.NumGC
			gcPause += after.PauseTotalNs - before.PauseTotalNs
		}
		count(inst.check(counted))
		if tr != nil {
			// After base rounds too, so that both kinds of round follow
			// the same kind of gap.
			inst.probe(tr)
		}
	}

	m := res.Metrics
	rounds := len(durs)
	var window time.Duration
	for _, d := range durs {
		window += d
	}
	m.set("setup_s", median(setupS))
	m.set("round_p50_ms", ms(durMedian(durs)))
	m.set("round_samples", float64(rounds))
	if rounds >= 200 {
		v, pct := tail(durs)
		m.set("round_tail_ms", ms(v))
		m.set("round_tail_pct", pct)
	}
	m.set("rounds_per_s", float64(rounds)/window.Seconds())
	m.set("failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	m.set("alloc_kb_per_round", float64(alloc)/1024/float64(rounds))
	m.set("go.gc_count", float64(gcCount))
	m.set("go.gc_pause_ms", float64(gcPause)/1e6)
	inst.report(m, rounds, tr)
	if tr != nil {
		reportSpans(m, tr)
		if len(base) > 0 {
			m.set("trace.overhead_ratio", ratio(float64(durMedian(durs)), float64(durMedian(base))))
		}
		if !o.small {
			spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, o.seed))
			if err := tr.write(spans); err != nil {
				return nil, fmt.Errorf("%s: write spans: %w", w.name, err)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)
	res.Correct = res.Failed == 0
	return res, nil
}

// reportSpans turns recorded spans into per-layer metrics: a span named
// L feeds the metric L_us or L_ms, as the median over rounds of the time
// per round (or, for probes, the median probe).
func reportSpans(m metrics, t *tracer) {
	seen := map[string]bool{}
	passes := map[int32]float64{}
	compiles := map[int32]float64{}
	isPass := map[string]bool{}
	for _, layer := range passLayer {
		isPass[layer] = true
	}
	for _, s := range t.spans {
		seen[s.name] = true
		if s.round < 0 {
			continue
		}
		switch {
		case isPass[s.name]:
			passes[s.round] += float64(s.end - s.start)
		case strings.HasPrefix(s.name, "compile."):
			compiles[s.round] += float64(s.end - s.start)
		}
	}
	for name := range seen {
		d, ok := t.roundMedian(name)
		if !ok {
			d, _ = t.probeMedian(name)
		}
		if _, ok := defByName[name+"_us"]; ok {
			m.set(name+"_us", us(d))
		} else if _, ok := defByName[name+"_ms"]; ok {
			m.set(name+"_ms", ms(d))
		}
	}
	if len(compiles) > 0 {
		var sums, rest []float64
		for r, c := range compiles {
			sums = append(sums, passes[r])
			rest = append(rest, c-passes[r])
		}
		m.set("pipeline.pass_sum_us", median(sums)/1e3)
		m.set("pipeline.unattributed_us", median(rest)/1e3)
	}
	share, rest := t.coverage()
	m.set("trace.coverage_min", share)
	m.set("round.unattributed_us", us(rest))
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM in /proc/self/status")
}
