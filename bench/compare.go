package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// values collects, per workload, the values a metric took over the
// untraced runs of a set: end-to-end metrics are always taken with
// tracing off.
func values(set *runSet, workload, name string) []float64 {
	var xs []float64
	for _, r := range set.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound is held against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// summarize prints median and quartiles of every gated metric of every
// workload of a set.
func summarize(set *runSet) {
	fmt.Printf("%-16s %-26s %5s %14s %14s %14s %8s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, d := range defs {
			xs := values(set, w.name, d.name)
			if d.gate == ungated || len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Printf("%-16s %-26s %5d %14.4f %14.4f %14.4f %7.2f%%\n", w.name, d.name, len(xs), q1, median(xs), q3, 100*spread(xs))
		}
	}
}

// verdict judges one metric of one workload between a base set and a
// new set. A relative metric has regressed when its median got worse by
// more than the bound, and is unresolved when either set's own spread is
// wider than the bound. A count must repeat to the unit.
func verdict(d def, base, cur []float64) (string, float64) {
	if d.gate == exact {
		for _, x := range append(append([]float64(nil), base...), cur...) {
			if x != base[0] {
				return "regressed", 0
			}
		}
		return "ok", 0
	}
	worse := ratio(median(cur)-median(base), median(base))
	if d.higher {
		worse = -worse
	}
	switch {
	case spread(base) > d.bound || spread(cur) > d.bound:
		return "unresolved", worse
	case worse > d.bound:
		return "regressed", worse
	}
	return "ok", worse
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// cmdCompare applies the bounds of the metric table to two run sets and
// fails unless every pairing of gated metric and workload is ok.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	base, err := readRunSet(args[0])
	if err != nil {
		return err
	}
	cur, err := readRunSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("base %s: git=%s %s num_cpu=%d seed=%d\n", args[0], base.Header.GitRev, base.Header.GoVersion, base.Header.NumCPU, base.Header.Seed)
	fmt.Printf("new  %s: git=%s %s num_cpu=%d seed=%d\n", args[1], cur.Header.GitRev, cur.Header.GoVersion, cur.Header.NumCPU, cur.Header.Seed)
	fmt.Printf("%-16s %-26s %14s %8s %14s %8s %8s %7s  %s\n", "workload", "metric", "base median", "spread", "new median", "spread", "worse", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range defs {
			a, b := values(base, w.name, d.name), values(cur, w.name, d.name)
			if d.gate == ungated || len(a) == 0 && len(b) == 0 {
				continue
			}
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-16s %-26s present in one set only\n", w.name, d.name)
				bad++
				continue
			}
			v, worse := verdict(d, a, b)
			if v != "ok" {
				bad++
			}
			bound := "exact"
			if d.gate == relative {
				bound = fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			fmt.Printf("%-16s %-26s %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%% %7s  %s\n", w.name, d.name,
				median(a), 100*spread(a), median(b), 100*spread(b), 100*worse, bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of the metric × workload pairings are not ok", bad)
	}
	return nil
}
