package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/dpl"
	"autopart/internal/pipeline"
	"autopart/internal/runtime"
	"autopart/pkg/autopart"
)

// program is one named DSL source.
type program struct {
	name, src string
}

// synthLoops generates an n-loop program whose loops are 60-statement
// scalar chains between one region read and one region write: the front
// half of the compiler (parse, check, normalize, infer) dominates it,
// where the solver dominates the paper's programs.
func synthLoops(n int) string {
	const stmts = 60
	var b strings.Builder
	b.WriteString("region Grid { a: scalar, b: scalar }\n")
	for l := 0; l < n; l++ {
		b.WriteString("for i in Grid {\n")
		fmt.Fprintf(&b, "  t0 = Grid[i].a + %d\n", l)
		for k := 1; k < stmts; k++ {
			fmt.Fprintf(&b, "  t%d = t%d * t%d + %d\n", k, k-1, k-1, k)
		}
		fmt.Fprintf(&b, "  Grid[i].b = t%d\n", stmts-1)
		b.WriteString("}\n")
	}
	return b.String()
}

// builtinPrograms are the eight sources of the compile workloads: the
// five programs of the paper's Table 1, the two hinted variants of §6.4,
// and synth50. They are generated once: set-up looks programs up by name
// and must not pay for generating synth50 each time.
var builtinPrograms = sync.OnceValue(func() []program {
	return []program{
		{"spmv", spmv.Source},
		{"stencil", stencil.Source()},
		{"circuit", circuit.Source},
		{"circuit-hint", circuit.HintSource},
		{"miniaero", miniaero.Source()},
		{"pennant", pennant.Source()},
		{"pennant-h2", pennant.HintSource(2)},
		{"synth50", synthLoops(50)},
	}
})

func programByName(name string) program {
	for _, p := range builtinPrograms() {
		if p.name == name {
			return p
		}
	}
	panic("bench: no builtin program " + name)
}

// render prints the part of a compile's result that users consume: the
// synthesized DPL program and the launch structure, in the words
// `apc -launches` prints them, so the text can be held against
// cmd/apc/testdata/*.golden.
func render(c *autopart.Compiled) string {
	var b strings.Builder
	b.WriteString("synthesized DPL program:\n")
	b.WriteString(indent(c.Solution.Program.String()))
	b.WriteByte('\n')
	if c.Private != nil && len(c.Private.Extra.Stmts) > 0 {
		b.WriteString("private sub-partitions (§5.2, Theorem 5.1):\n")
		b.WriteString(indent(c.Private.Extra.String()))
		b.WriteByte('\n')
	}
	b.WriteString("parallel launches:\n")
	for i, pl := range c.Parallel {
		fmt.Fprintf(&b, "  %s\n", runtime.FromParallelLoop(fmt.Sprintf("loop%d", i), pl))
	}
	return b.String()
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// outcome reduces a compile's result to a string two compiles of one
// source must agree on: the digest of the rendered output, or the error
// text for a source the compiler rightly rejects.
func outcome(c *autopart.Compiled, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256([]byte(render(c)))
	return hex.EncodeToString(sum[:16])
}

// expectation pins one builtin program's output across commits.
type expectation struct {
	Digest        string `json:"digest"`
	DPLPartitions int    `json:"dpl_partitions"`
}

// commPin pins the communication of one app of one workload at the
// calibrated scale: a change in partition quality shows as a failed
// check, not as a silently different row.
type commPin struct {
	Bytes float64 `json:"bytes"`
	Msgs  int     `json:"msgs"`
}

// expectations is testdata/expect.json, captured with `bench capture`.
type expectations struct {
	Programs map[string]expectation `json:"programs"`
	Comm     map[string]commPin     `json:"comm"`
}

//go:embed testdata/expect.json
var expectJSON []byte

func loadExpectations(e *env) (*expectations, error) {
	var x expectations
	if err := json.Unmarshal(expectJSON, &x); err != nil {
		return nil, fmt.Errorf("testdata/expect.json: %w", err)
	}
	if e.corrupt {
		for k, v := range x.Programs {
			v.Digest = "corrupt"
			x.Programs[k] = v
		}
		for k, v := range x.Comm {
			v.Bytes++
			x.Comm[k] = v
		}
	}
	return &x, nil
}

// compiled is one compile's result as a round keeps it for its check.
type compiled struct {
	c   *autopart.Compiled
	err error
}

// compileStats sums what compiles return about themselves, over the
// timed rounds.
type compileStats struct {
	partitions, constraints, srcBytes         int
	nodes, memoHits, memoMisses               int
	closedHits, closedMisses, builds, extends int
	unifyNS                                   int64
}

func (s *compileStats) add(src string, c *autopart.Compiled) {
	s.srcBytes += len(src)
	if c == nil {
		return
	}
	s.partitions += len(c.DPLProgram().Stmts)
	for _, r := range c.Inference {
		s.constraints += len(r.Sys.Preds) + len(r.Sys.Subsets)
	}
	st := c.Solution.Stats
	s.nodes += st.Nodes
	s.memoHits += st.MemoHits
	s.memoMisses += st.MemoMisses
	s.closedHits += st.ClosedHits
	s.closedMisses += st.ClosedMisses
	s.builds += st.GraphBuilds
	s.extends += st.GraphExtends
	s.unifyNS += st.UnifyNS
}

func (s *compileStats) report(m metrics, rounds int, t *tracer) {
	per := func(v int) float64 { return float64(v) / float64(rounds) }
	m.set("dpl_partitions_per_round", per(s.partitions))
	m.set("infer.constraints", per(s.constraints))
	m.set("solver.search_nodes", per(s.nodes))
	m.set("solver.unify_us", float64(s.unifyNS)/1e3/float64(rounds))
	m.set("solver.memo_hit_ratio", ratio(float64(s.memoHits), float64(s.memoHits+s.memoMisses)))
	m.set("solver.closed_hit_ratio", ratio(float64(s.closedHits), float64(s.closedHits+s.closedMisses)))
	m.set("solver.graph_builds", per(s.builds))
	m.set("solver.graph_extends", per(s.extends))
	m.set("dpl.intern_entries", float64(dpl.Default().Entries()))
	if parse, ok := t.roundMedian("lang.parse"); ok {
		m.set("lang.parse_mb_per_s", ratio(per(s.srcBytes)/1e6, parse.Seconds()))
	}
}

// internHitRatio runs one more, untimed round with the intern table's
// counters on (their upkeep would perturb timed rounds) and returns the
// table's hit ratio over it.
func internHitRatio(inst instance) float64 {
	dpl.EnableInternStats(true)
	inst.round(-1, nil, -1)
	var hits, misses uint64
	for _, st := range dpl.InternStats() {
		hits += st.Hits
		misses += st.Misses
	}
	dpl.EnableInternStats(false)
	return ratio(float64(hits), float64(hits+misses))
}

// observers returns the per-compile options that record the compile's
// passes as children of span id; none when tracing is off.
func observers(t *tracer, id, round int) []pipeline.Observer {
	if t == nil {
		return nil
	}
	return []pipeline.Observer{&passObserver{t: t, parent: id, round: round}}
}

// ---- compile-cold ----

// compileCold is Table 1's path: a round compiles the eight sources
// one-shot, each from an empty intern table as a fresh `apc` process
// would, so that no compile's cost depends on which sources came before
// it in the seed's order.
type compileCold struct {
	progs []program
	exp   *expectations
	out   []compiled
	stats compileStats
}

func prepareCompileCold(e *env) (instance, error) {
	exp, err := loadExpectations(e)
	if err != nil {
		return nil, err
	}
	w := &compileCold{progs: append([]program(nil), builtinPrograms()...), exp: exp}
	// The seed fixes the order of the list; a round is one pass over it.
	e.rng("order").Shuffle(len(w.progs), func(i, j int) { w.progs[i], w.progs[j] = w.progs[j], w.progs[i] })
	w.out = make([]compiled, len(w.progs))
	return w, nil
}

func (w *compileCold) setup() error { return nil }

func (w *compileCold) round(r int, t *tracer, parent int) {
	for i, p := range w.progs {
		dpl.Default().Reset()
		id := t.begin("compile."+p.name, parent, r)
		c, err := autopart.Compile(p.src, autopart.Options{Observers: observers(t, id, r)})
		t.end(id)
		w.out[i] = compiled{c, err}
	}
}

func (w *compileCold) check(r int) (attempted, failed int) {
	for i, p := range w.progs {
		o := w.out[i]
		want := w.exp.Programs[p.name]
		if outcome(o.c, o.err) != want.Digest || len(o.c.DPLProgram().Stmts) != want.DPLPartitions {
			failed++
		}
		if r >= 0 {
			w.stats.add(p.src, o.c)
		}
	}
	return len(w.progs), failed
}

func (w *compileCold) probe(*tracer) {}

func (w *compileCold) report(m metrics, rounds int, t *tracer) {
	w.stats.report(m, rounds, t)
	if t != nil {
		m.set("dpl.intern_hit_ratio", internHitRatio(w))
	}
}
