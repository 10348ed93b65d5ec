package autopart_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"autopart/internal/apps/builtins"
	"autopart/internal/dpl"
	"autopart/internal/runtime"
	"autopart/pkg/autopart"
)

// renderCompiled flattens everything observable about a compile into a
// deterministic string: the full DPL program (including §5.2 private
// statements), every launch's region requirements, and the external
// symbol list. Two compiles are considered identical iff these bytes
// are.
func renderCompiled(c *autopart.Compiled) string {
	var sb strings.Builder
	sb.WriteString(c.DPLProgram().String())
	sb.WriteByte('\n')
	for i, pl := range c.Parallel {
		sb.WriteString(runtime.FromParallelLoop(fmt.Sprintf("loop%d", i), pl).String())
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Join(c.ExternalSyms, ","))
	return sb.String()
}

// sequentialBaselines compiles every builtin with the one-shot Compile
// entry point (private caches, no service) and renders each result.
func sequentialBaselines(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	for _, name := range builtins.Names() {
		src, _, _ := builtins.Source(name)
		c, err := autopart.Compile(src, autopart.Options{})
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		golden[name] = renderCompiled(c)
	}
	return golden
}

// TestServiceConcurrentByteIdentical is the service's core contract: N
// goroutines compiling the five builtin benchmarks concurrently through
// one shared Service (shared memo cache, bounded concurrency,
// epoch-pinned intern table) produce results byte-identical to one-shot sequential
// compiles, and warm recompiles answer >90% of solver verdict lookups
// from the shared cache.
func TestServiceConcurrentByteIdentical(t *testing.T) {
	golden := sequentialBaselines(t)
	names := builtins.Names()

	sv := autopart.NewService(autopart.ServiceOptions{MaxConcurrent: 4})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(names))
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				// Rotate the order per goroutine so different programs
				// genuinely interleave.
				name := names[(i+g)%len(names)]
				src, _, _ := builtins.Source(name)
				c, err := sv.Compile(src)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				if got := renderCompiled(c); got != golden[name] {
					errs <- fmt.Errorf("%s: concurrent service output diverges from sequential baseline\ngot:\n%s\nwant:\n%s", name, got, golden[name])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := sv.Stats()
	if st.Compiles != goroutines*uint64(len(names)) {
		t.Errorf("Compiles = %d, want %d", st.Compiles, goroutines*len(names))
	}
	if st.Failures != 0 {
		t.Errorf("Failures = %d, want 0", st.Failures)
	}

	// Warm recompiles: verdict lookups must come from the shared cache.
	before := st.Memo
	for _, name := range names {
		src, _, _ := builtins.Source(name)
		if _, err := sv.Compile(src); err != nil {
			t.Fatalf("warm %s: %v", name, err)
		}
	}
	after := sv.Stats().Memo
	if after.Hits <= before.Hits {
		t.Errorf("warm recompiles did not increase memo hits (%d -> %d)", before.Hits, after.Hits)
	}
	dh, dm := after.Hits-before.Hits, after.Misses-before.Misses
	if rate := float64(dh) / float64(dh+dm); rate <= 0.9 {
		t.Errorf("warm verdict hit rate = %.3f (hits %d, misses %d), want > 0.9", rate, dh, dm)
	}
}

// TestServiceInternBound exercises epoch-based reclamation end to end:
// a service with a tiny intern budget must rebuild the shared table
// between compiles (never during one) and still produce baseline
// results afterwards.
func TestServiceInternBound(t *testing.T) {
	golden := sequentialBaselines(t)
	sv := autopart.NewService(autopart.ServiceOptions{
		MaxConcurrent:    2,
		InternMaxEntries: 64, // far below one benchmark's working set
	})
	defer dpl.Default().SetMaxEntries(0) // unbind the process-wide table for later tests

	for round := 0; round < 2; round++ {
		for _, name := range builtins.Names() {
			src, _, _ := builtins.Source(name)
			c, err := sv.Compile(src)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if got := renderCompiled(c); got != golden[name] {
				t.Fatalf("round %d %s: output diverges under intern reclamation", round, name)
			}
		}
	}
	st := sv.Stats()
	if st.InternReclaims == 0 {
		t.Error("intern table never reclaimed despite a 64-entry budget")
	}
	if st.InternEntries > 0 && st.InternGeneration == 0 {
		t.Error("table over budget but generation never advanced")
	}
}

// TestServiceResultsSurviveReclamation pins that a Compiled returned by
// the service stays renderable after the table it was compiled against
// has been rebuilt (results hold structural expressions, not table
// ids).
func TestServiceResultsSurviveReclamation(t *testing.T) {
	sv := autopart.NewService(autopart.ServiceOptions{InternMaxEntries: 16})
	defer dpl.Default().SetMaxEntries(0)

	src, _, _ := builtins.Source("spmv")
	c, err := sv.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	first := renderCompiled(c)
	// Force generations forward.
	for i := 0; i < 3; i++ {
		if _, err := sv.Compile(src); err != nil {
			t.Fatal(err)
		}
	}
	if renderCompiled(c) != first {
		t.Error("held result changed rendering after intern reclamation")
	}
}
