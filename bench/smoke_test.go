package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"autopart/internal/exec/cluster"
	"autopart/pkg/autopart"
)

// TestMain lets the test binary stand in for the bench binary's worker
// mode: the exec-wire probe re-execs os.Executable() with "worker".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := cluster.WorkerMain("127.0.0.1:0", os.Stdout, cluster.WorkerOptions{}); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the table is held
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(d def) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTable holds BENCHMARK.json and the metric
// table together: same workloads, same metrics, units, directions and
// bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, b.Workloads[i].Name, w.name)
		}
		// BENCHMARK.json has no key for the calibrated round count; the
		// why begins with it.
		if want := fmt.Sprintf("%d rounds. ", w.rounds); !strings.HasPrefix(b.Workloads[i].Why, want) {
			t.Errorf("%s: why does not begin with %q", w.name, want)
		}
	}
	named := map[string]bool{}
	for _, e := range b.EndToEnd {
		named[e.Name] = true
		d, ok := defByName[e.Name]
		if !ok || !d.contract {
			t.Errorf("end_to_end metric %q is not a contract metric of the table", e.Name)
			continue
		}
		if e.Unit != d.unit || e.Better != better(*d) || e.Bound != d.bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the table %s/%s/%v", e.Name, e.Unit, e.Better, e.Bound, d.unit, better(*d), d.bound)
		}
	}
	for _, e := range b.PerLayer {
		named[e.Name] = true
		d, ok := defByName[e.Name]
		if !ok || d.contract {
			t.Errorf("per_layer metric %q is not a per-layer metric of the table", e.Name)
			continue
		}
		if e.Unit != d.unit || e.Better != better(*d) {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the table %s/%s", e.Name, e.Unit, e.Better, d.unit, better(*d))
		}
	}
	for _, d := range defs {
		if !named[d.name] {
			t.Errorf("metric %q of the table is missing from BENCHMARK.json", d.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload for three rounds at reduced scale, with
// tracing off and on, and checks the driver line: every metric
// BENCHMARK.json names is there with its unit, no end-to-end metric is
// 0, every check passes — and fails once the expectations are corrupted.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runOpts{seed: 1, small: true, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				d, ok := defByName[name]
				if !ok || v.Unit != d.unit || !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
					t.Errorf("%s: metric %q with unit %q is not in the table", w.name, name, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
			line := project(res.Metrics, traced)
			for _, d := range defs {
				v, ok := line[d.name]
				if ok != (d.contract != traced) {
					t.Errorf("%s traced=%v: %s on the driver line: %v", w.name, traced, d.name, ok)
				}
				if d.contract && !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
			}
			if traced {
				for _, name := range []string{"trace.overhead_ratio", "trace.coverage_min", "round.unattributed_us"} {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("%s: traced run reports no %s", w.name, name)
					}
				}
			}
		}
		res, err := runWorkload(w, runOpts{seed: 1, small: true, corrupt: true})
		if err != nil {
			t.Fatalf("%s corrupted: %v", w.name, err)
		}
		if res.Correct || res.Metrics["failed_ratio"].Value <= 0 {
			t.Errorf("%s: corrupted expectations went unnoticed (%d of %d failed)", w.name, res.Failed, res.Attempted)
		}
	}
}

// TestSameSeedSameWork runs service-warm, the workload whose inputs are
// drawn per round, twice on one seed and once on another: a seed fixes
// the requests whatever the machine's speed, and another seed draws
// other ones.
func TestSameSeedSameWork(t *testing.T) {
	counts := func(seed int64) [3]float64 {
		res, err := runWorkload(workloadByName("service-warm"), runOpts{seed: seed, small: true})
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{float64(res.Attempted), res.Metrics["dpl_partitions_per_round"].Value, res.Metrics["infer.constraints"].Value}
	}
	a, b, c := counts(1), counts(1), counts(2)
	if a != b {
		t.Errorf("seed 1 twice: attempted, partitions, constraints %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 made the same requests: %v", a)
	}
}

// TestExpectationsMatchGoldens holds the text the digests of
// testdata/expect.json are taken of against cmd/apc's goldens for the
// five programs of the paper.
func TestExpectationsMatchGoldens(t *testing.T) {
	exp, err := loadExpectations(&env{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant"} {
		golden, err := os.ReadFile("../cmd/apc/testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		c, err := autopart.Compile(programByName(name).src, autopart.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(golden), render(c)) {
			t.Errorf("%s: rendered output is not part of cmd/apc/testdata/%s.golden", name, name)
		}
		if got := outcome(c, nil); got != exp.Programs[name].Digest {
			t.Errorf("%s: digest %s, testdata/expect.json has %s", name, got, exp.Programs[name].Digest)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	p50 := *defByName["round_p50_ms"]
	rate := *defByName["rounds_per_s"]
	comm := *defByName["comm_bytes_per_round"]
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d         def
		base, cur []float64
		want      string
	}{
		{p50, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{p50, steady, []float64{125, 124, 126, 125, 125}, "regressed"},
		{p50, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{p50, steady, []float64{90, 130, 100, 120, 80}, "unresolved"},
		{rate, steady, []float64{75, 74, 76, 75, 75}, "regressed"},
		{rate, steady, []float64{115, 114, 116, 115, 115}, "ok"},
		{comm, []float64{4096, 4096}, []float64{4096, 4096}, "ok"},
		{comm, []float64{4096, 4096}, []float64{4096, 4097}, "regressed"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("case %d (%s): verdict %s, want %s", i, c.d.name, got, c.want)
		}
	}
}
