package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"autopart/internal/dpl"
	"autopart/internal/gen"
	"autopart/internal/lang"
	"autopart/internal/pipeline"
	"autopart/pkg/autopart"
)

// ---- service-warm ----

const (
	// batchSize is the number of requests one client sends per round:
	// half the eight builtin programs (each twice, memo fully warm), a
	// quarter repeats from the pool, a quarter never-seen sources.
	batchSize  = 32
	poolSize   = 64
	poolDraws  = batchSize / 4
	freshDraws = batchSize / 4
	maxClients = 2
	// maxConstraints is the size of the largest generated program the
	// workload draws, in conjuncts of its inferred constraint system. The
	// generated sources are gen.Generate(seed+i, gen.Small) for i = 0, 1,
	// ... less the ones above this size. Of seeds 1 to 3000 seven in ten
	// stay: every source the compiler rejects (1119) and half of those it
	// accepts (994 of 1881); the 99th percentile of their first compiles
	// is ten times the median and the slowest seventy times (6 ms).
	// Without a limit one source in a hundred takes 100 to 10,000 times
	// the median to solve, and the few a run draws are most of its time.
	// The solver's own counters do not say which: a source of twenty
	// search nodes and 0.4 ms of unification takes two seconds. The size
	// is a property of the source, the same on every machine.
	maxConstraints = 30
)

// frontHalf are the passes that end with a program's inferred
// constraints.
var frontHalf = func() []pipeline.Pass {
	passes, err := pipeline.Passes("parse", "check", "normalize", "infer")
	if err != nil {
		panic(err)
	}
	return passes
}()

// constraints counts the conjuncts the compiler infers for a source; a
// source it rejects on the way has none.
func constraints(src string) int {
	s := pipeline.NewSession(src, pipeline.Config{})
	_ = (&pipeline.Runner{Passes: frontHalf}).Run(s)
	return s.Metrics()["constraints"]
}

// request is one compile request of a batch.
type request struct {
	kind string // builtin program name, or "generated"
	src  string
	// want is the expected outcome; empty for a never-seen source, which
	// the check compiles cold itself, after the service has seen it.
	want string
}

// serviceWarm drives one autopart.Service the way apcd's clients do:
// the same solver as compile-cold, reached through the shared memo
// cache, the session pool and the concurrency semaphore.
type serviceWarm struct {
	e        *env
	builtins []request
	pool     []request
	fresh    []int64 // generator seeds of the never-seen sources, in draw order
	next     int     // fresh sources drawn since setup
	clients  int
	order    *rand.Rand

	sv      *autopart.Service
	batches [][]request
	out     [][]compiled
	stats   compileStats
	base    autopart.ServiceStats
}

func prepareServiceWarm(e *env) (instance, error) {
	exp, err := loadExpectations(e)
	if err != nil {
		return nil, err
	}
	w := &serviceWarm{e: e, clients: min(maxClients, runtime.NumCPU())}
	for _, p := range builtinPrograms() {
		w.builtins = append(w.builtins, request{kind: p.name, src: p.src, want: exp.Programs[p.name].Digest})
	}
	// A batch is drawn for the warm-up, for every round and once more
	// after the last. Counting constraints interns a source's expressions,
	// so all of it is done here, before set-up empties the intern table.
	need := poolSize + (e.rounds+2)*w.clients*freshDraws
	var seeds []int64
	for s := e.seed; len(seeds) < need; s++ {
		if constraints(gen.Generate(s, gen.Small).Src) <= maxConstraints {
			seeds = append(seeds, s)
		}
	}
	for _, s := range seeds[:poolSize] {
		src := gen.Generate(s, gen.Small).Src
		want := outcome(autopart.Compile(src, autopart.Options{}))
		if e.corrupt {
			want = "corrupt"
		}
		w.pool = append(w.pool, request{kind: "generated", src: src, want: want})
	}
	w.fresh = seeds[poolSize:]
	return w, nil
}

// nextBatches draws every client's batch for the coming round.
func (w *serviceWarm) nextBatches() {
	w.batches = w.batches[:0]
	for c := 0; c < w.clients; c++ {
		var b []request
		b = append(b, w.builtins...)
		b = append(b, w.builtins...)
		for i := 0; i < poolDraws; i++ {
			b = append(b, w.pool[w.order.Intn(len(w.pool))])
		}
		for i := 0; i < freshDraws; i++ {
			b = append(b, request{kind: "generated", src: gen.Generate(w.fresh[w.next], gen.Small).Src})
			w.next++
		}
		w.order.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		w.batches = append(w.batches, b)
	}
}

// setup starts over: a new service, and the seed's draws from the start.
func (w *serviceWarm) setup() error {
	dpl.Default().Reset()
	w.sv = autopart.NewService(autopart.ServiceOptions{})
	for _, rq := range append(append([]request(nil), w.builtins...), w.pool...) {
		// Rejected sources are part of the traffic; their errors are
		// checked in the rounds.
		_, _ = w.sv.Compile(rq.src)
	}
	w.out = make([][]compiled, w.clients)
	for c := range w.out {
		w.out[c] = make([]compiled, batchSize)
	}
	w.next, w.order = 0, w.e.rng("order")
	w.nextBatches()
	w.base = w.sv.Stats()
	return nil
}

func (w *serviceWarm) round(r int, t *tracer, parent int) {
	var wg sync.WaitGroup
	for c := range w.batches {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, rq := range w.batches[c] {
				id := t.begin("compile."+rq.kind, parent, r)
				res, err := w.sv.CompileWith(rq.src, autopart.Options{Observers: observers(t, id, r)})
				t.end(id)
				w.out[c][i] = compiled{res, err}
			}
		}(c)
	}
	wg.Wait()
}

func (w *serviceWarm) check(r int) (attempted, failed int) {
	for c, b := range w.batches {
		for i, rq := range b {
			o := w.out[c][i]
			want := rq.want
			if want == "" {
				want = outcome(autopart.Compile(rq.src, autopart.Options{}))
				if w.e.corrupt {
					want = "corrupt"
				}
			}
			if outcome(o.c, o.err) != want {
				failed++
			}
			if r >= 0 {
				w.stats.add(rq.src, o.c)
			}
			attempted++
		}
	}
	w.nextBatches()
	return attempted, failed
}

func (w *serviceWarm) probe(*tracer) {}

func (w *serviceWarm) report(m metrics, rounds int, t *tracer) {
	w.stats.report(m, rounds, t)
	st := w.sv.Stats()
	hits, misses := st.Memo.Hits-w.base.Memo.Hits, st.Memo.Misses-w.base.Memo.Misses
	m.set("service.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("service.intern_reclaims", float64(st.InternReclaims-w.base.InternReclaims))
	if t == nil {
		return
	}
	var lat []float64
	for _, s := range t.spans {
		if s.round >= 0 && strings.HasPrefix(s.name, "compile.") {
			lat = append(lat, float64(s.end-s.start)/1e3)
		}
	}
	m.set("service.request_p50_us", median(lat))
	m.set("service.request_p99_us", percentile(lat, 0.99))
	m.set("dpl.intern_hit_ratio", internHitRatio(w))
}

// ---- edit-recompile ----

// hotStatements is how many statements of a program the editor works
// on: places spread evenly over the program, the same for every seed,
// which draws the sequence of edits to them. Setup compiles each
// place's duplicate once, so that in the timed rounds the service's memo
// is as warm as it is for an editor who has been at the same places for a
// while. Without that, one round in seven meets a constraint system the
// memo has not seen and takes ten times as long, and the share of such
// rounds falls as the run goes on.
const hotStatements = 8

// editable is one program under edit: its text split into the chunks
// between loops and the loops themselves. At any time it is the base
// program with at most one statement edited.
type editable struct {
	program            // src is the current, edited source
	chunks  []string   // alternating: text before loop 0, loop 0, text, loop 1, ...
	loops   [][]string // loops[i] is the lines of the loop in chunks[2*i+1]
	hot     []stmtRef  // the statements the editor works on
	edited  int        // loop that carries the current edit, -1 for none
}

// stmtRef names one plain statement line of a loop.
type stmtRef struct{ loop, line int }

// trailingConst matches a statement line that ends in an integer
// literal, the constant an edit may change.
var trailingConst = regexp.MustCompile(`^(.*[ (])([0-9]+)(\s*)$`)

func newEditable(p program) (*editable, error) {
	seg, err := lang.SplitSource(p.src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	ed := &editable{program: p, edited: -1}
	var plain []stmtRef
	at := 0
	for i := range seg.Loops {
		s := seg.LoopSeg(i)
		lines := strings.SplitAfter(p.src[s.Start:s.End], "\n")
		for j, line := range lines {
			t := strings.TrimSpace(line)
			if t != "" && strings.HasSuffix(line, "\n") && !strings.ContainsAny(t, "{}") && !strings.HasPrefix(t, "//") && !strings.HasPrefix(t, "#") {
				plain = append(plain, stmtRef{i, j})
			}
		}
		ed.chunks = append(ed.chunks, p.src[at:s.Start], p.src[s.Start:s.End])
		ed.loops = append(ed.loops, lines)
		at = s.End
	}
	ed.chunks = append(ed.chunks, p.src[at:])
	if len(plain) == 0 {
		return nil, fmt.Errorf("%s: no statement to edit", p.name)
	}
	n := min(hotStatements, len(plain))
	for k := 0; k < n; k++ {
		ed.hot = append(ed.hot, plain[k*len(plain)/n])
	}
	return ed, nil
}

// apply undoes the previous edit and replaces hot statement k by repl
// (one or more whole lines), so a recompile sees at most two dirty loops
// and the program stays within one statement of its base.
func (ed *editable) apply(k int, repl func(line string) string) {
	if ed.edited >= 0 {
		ed.chunks[2*ed.edited+1] = strings.Join(ed.loops[ed.edited], "")
	}
	at := ed.hot[k]
	lines := ed.loops[at.loop]
	ed.chunks[2*at.loop+1] = strings.Join(lines[:at.line], "") + repl(lines[at.line]) + strings.Join(lines[at.line+1:], "")
	ed.edited = at.loop
	ed.src = strings.Join(ed.chunks, "")
}

func duplicate(line string) string { return line + line }

// edit applies one seeded edit: a hot statement is duplicated or, if it
// ends in a constant, half the time has the constant changed.
func (ed *editable) edit(rng *rand.Rand) {
	k := rng.Intn(len(ed.hot))
	value, change := rng.Intn(1000), rng.Intn(2) == 0
	ed.apply(k, func(line string) string {
		if m := trailingConst.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil && change {
			return m[1] + strconv.Itoa(value) + m[3] + "\n"
		}
		return duplicate(line)
	})
}

// editRecompile replays an editor's traffic: every round one seeded
// statement edit to each of six programs, recompiled with
// CompileIncremental under the program's key.
type editRecompile struct {
	e      *env
	bases  []program
	progs  []*editable
	edits  *rand.Rand
	sv     *autopart.Service
	full   *autopart.Service // traced runs: the same edits through Service.Compile
	out    []compiled
	checks int      // calls of check since setup
	last   []string // the sources of the round just checked, for probe
	stats  compileStats
	base   autopart.ServiceStats
}

func prepareEditRecompile(e *env) (instance, error) {
	w := &editRecompile{e: e}
	for _, name := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant", "synth50"} {
		w.bases = append(w.bases, programByName(name))
	}
	return w, nil
}

func (w *editRecompile) setup() error {
	dpl.Default().Reset()
	w.sv = autopart.NewService(autopart.ServiceOptions{})
	w.full = nil
	w.edits = w.e.rng("edits")
	w.progs = w.progs[:0]
	for _, p := range w.bases {
		ed, err := newEditable(p)
		if err != nil {
			return err
		}
		if _, err := w.sv.CompileIncremental(p.name, p.src); err != nil {
			return fmt.Errorf("seed %s: %w", p.name, err)
		}
		for k := range ed.hot {
			ed.apply(k, duplicate)
			if _, err := w.sv.CompileIncremental(p.name, ed.src); err != nil {
				return fmt.Errorf("seed %s, statement %d duplicated: %w", p.name, k, err)
			}
		}
		w.progs = append(w.progs, ed)
	}
	w.out, w.checks = make([]compiled, len(w.progs)), 0
	w.nextEdits()
	w.base = w.sv.Stats()
	return nil
}

func (w *editRecompile) nextEdits() {
	for _, ed := range w.progs {
		ed.edit(w.edits)
	}
}

func (w *editRecompile) round(r int, t *tracer, parent int) {
	for i, ed := range w.progs {
		id := t.begin("compile."+ed.name, parent, r)
		c, err := w.sv.CompileIncrementalWith(ed.name, ed.src, autopart.Options{Observers: observers(t, id, r)})
		t.end(id)
		w.out[i] = compiled{c, err}
	}
}

func (w *editRecompile) check(r int) (attempted, failed int) {
	for i, ed := range w.progs {
		o := w.out[i]
		bad := o.err != nil
		// The warm-up and every tenth round after it also hold the result
		// against a cold compile of the same source.
		if !bad && w.checks%10 == 0 {
			want := outcome(autopart.Compile(ed.src, autopart.Options{}))
			bad = outcome(o.c, nil) != want || w.e.corrupt
		}
		if bad {
			failed++
		}
		if r >= 0 {
			w.stats.add(ed.src, o.c)
		}
	}
	w.checks++
	w.last = w.last[:0]
	for _, ed := range w.progs {
		w.last = append(w.last, ed.src)
	}
	w.nextEdits()
	return len(w.progs), failed
}

// probe times, on the sources of the round just run, the source
// segmentation the incremental frontend starts with, and the same
// recompiles through a warm Service.Compile, the base of
// service.incr_over_full.
func (w *editRecompile) probe(t *tracer) {
	id := t.begin("lang.split", -1, -1)
	for _, src := range w.last {
		_, _ = lang.SplitSource(src)
	}
	t.end(id)
	if w.full == nil {
		w.full = autopart.NewService(autopart.ServiceOptions{})
		for _, p := range w.bases {
			_, _ = w.full.Compile(p.src)
		}
	}
	id = t.begin("service.full_round", -1, -1)
	for _, src := range w.last {
		_, _ = w.full.Compile(src)
	}
	t.end(id)
}

func (w *editRecompile) report(m metrics, rounds int, t *tracer) {
	w.stats.report(m, rounds, t)
	st := w.sv.Stats()
	clean := st.IncrementalCleanLoops - w.base.IncrementalCleanLoops
	dirty := st.IncrementalDirtyLoops - w.base.IncrementalDirtyLoops
	m.set("service.incr_clean_ratio", ratio(float64(clean), float64(clean+dirty)))
	m.set("service.incr_cold_fallbacks", float64(st.IncrementalCold-w.base.IncrementalCold))
	hits, misses := st.Memo.Hits-w.base.Memo.Hits, st.Memo.Misses-w.base.Memo.Misses
	m.set("service.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	if t == nil {
		return
	}
	if full, ok := t.probeMedian("service.full_round"); ok {
		round, _ := t.roundMedian("round")
		m.set("service.incr_over_full", ratio(float64(round), float64(full)))
	}
	m.set("dpl.intern_hit_ratio", internHitRatio(w))
}
