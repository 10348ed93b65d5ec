package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"autopart/internal/pipeline"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark only, around public calls into the program; they live in
// memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer was made
	parent     int32         // index of the causing span, -1 for none
	round      int32         // timed round, -1 for warm-up and probes
}

// tracer collects spans. A nil *tracer records nothing, so workloads
// call it unconditionally and untraced rounds pay one nil check. The
// buffer grows as spans arrive and is not allocated up front: a one-shot
// compile runs in a heap of a few megabytes, and a few megabytes of idle
// buffer beside it would halve how often the collector runs and make
// traced rounds faster than untraced ones.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, parent: int32(parent), round: int32(round)})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// passLayer names each compiler pass after the package that does the
// work, so per-layer metrics carry package names.
var passLayer = map[string]string{
	"parse":     "lang.parse",
	"check":     "lang.check",
	"normalize": "ir.normalize",
	"infer":     "infer.infer",
	"relax":     "optimize.relax",
	"solve":     "solver.solve",
	"private":   "optimize.private",
	"rewrite":   "rewrite.build",
}

// passObserver turns pass events of one compile into child spans of the
// compile's span. One observer serves one goroutine.
type passObserver struct {
	t             *tracer
	parent, round int
	cur           int
}

func (o *passObserver) OnPassStart(pass string, _ int) {
	o.cur = o.t.begin(passLayer[pass], o.parent, o.round)
}
func (o *passObserver) OnPassEnd(pipeline.PassEvent) { o.t.end(o.cur) }

// perRound sums, for every timed round, the durations of the spans with
// the given name, and returns one sum per round that has any.
func (t *tracer) perRound(name string) []float64 {
	if t == nil {
		return nil
	}
	sums := map[int32]float64{}
	for _, s := range t.spans {
		if s.name == name && s.round >= 0 {
			sums[s.round] += float64(s.end - s.start)
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// roundMedian is the median over rounds of the per-round time spent in
// spans of one name; ok is false when no such span was recorded.
func (t *tracer) roundMedian(name string) (d time.Duration, ok bool) {
	xs := t.perRound(name)
	return time.Duration(median(xs)), len(xs) > 0
}

// probeMedian is the median duration of the spans of one name recorded
// outside timed rounds.
func (t *tracer) probeMedian(name string) (d time.Duration, ok bool) {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name && s.round < 0 {
			xs = append(xs, float64(s.end-s.start))
		}
	}
	return time.Duration(median(xs)), len(xs) > 0
}

// coverage is the sum check: for every round span, the part of it that
// its direct children cover (overlapping children counted once). It
// returns the smallest covered share over the rounds and the median
// uncovered remainder.
func (t *tracer) coverage() (minShare float64, unattributed time.Duration) {
	type iv struct{ a, b time.Duration }
	kids := map[int][]iv{}
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == "round" {
			kids[int(s.parent)] = append(kids[int(s.parent)], iv{s.start, s.end})
		}
	}
	minShare = 1
	var rest []float64
	for id, s := range t.spans {
		if s.name != "round" {
			continue
		}
		ivs := kids[id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi time.Duration
		hi = s.start
		for _, k := range ivs {
			if k.b <= hi {
				continue
			}
			if k.a > hi {
				hi = k.a
			}
			covered += k.b - hi
			hi = k.b
		}
		whole := s.end - s.start
		if share := ratio(float64(covered), float64(whole)); share < minShare {
			minShare = share
		}
		rest = append(rest, float64(whole-covered))
	}
	return minShare, time.Duration(median(rest))
}

// write stores the spans as JSON lines: name, start_ns, end_ns, parent,
// round.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"round\":%d}\n",
			s.name, int64(s.start), int64(s.end), s.parent, s.round)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
