package autopart

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"autopart/internal/dpl"
	"autopart/internal/pipeline"
	"autopart/internal/solver"
)

// ServiceOptions configure a compile service.
type ServiceOptions struct {
	// MaxConcurrent bounds the number of compiles executing at once;
	// excess requests queue. Non-positive selects GOMAXPROCS.
	MaxConcurrent int
	// MemoCacheCap is the per-generation capacity of the shared solver
	// memo cache (entries); non-positive selects
	// solver.DefaultMemoCacheCap. The cache holds at most ~2× this many
	// entries.
	MemoCacheCap int
	// InternMaxEntries, when positive, bounds the process-wide dpl intern
	// table: once it grows past the bound, it is rebuilt between compiles
	// (never during one — compiles hold epochs). Zero leaves the table
	// unbounded, the behavior of one-shot Compile.
	InternMaxEntries int
	// MaxIncrementalSessions bounds the number of keyed incremental
	// sessions (CompileIncremental) retained at once; the least recently
	// used key is evicted past the bound. Non-positive selects 64.
	MaxIncrementalSessions int
	// Base are the per-compile options applied when Compile is used;
	// CompileWith overrides them per request.
	Base Options
}

// Service is a concurrency-safe compile-as-a-service front end: it
// shares one solver memo cache across every compile it runs (so
// recompiles of similar programs reuse solvability, closed-conjunct,
// and refuted-subtree verdicts), bounds
// in-flight compiles, and keeps the shared intern table inside a memory
// budget via epoch-based reclamation. Results are byte-identical to
// one-shot Compile — the cache stores verdicts a fresh solver would
// recompute, never approximations.
type Service struct {
	base  Options
	cache *solver.MemoCache
	table *dpl.Table
	sem   chan struct{}

	compiles atomic.Uint64
	failures atomic.Uint64

	// Keyed incremental sessions: each key identifies one evolving
	// program, and its session retains the previous compile's front-half
	// artifacts so edits skip the clean loops' parse/check/normalize/
	// infer work entirely.
	incrMu       sync.Mutex
	incrSessions map[string]*keyedSession
	incrTick     uint64
	incrMax      int

	incrCompiles atomic.Uint64
	incrCold     atomic.Uint64
	incrClean    atomic.Uint64
	incrDirty    atomic.Uint64
}

// keyedSession serializes compiles for one incremental key. The mutex
// is held for the whole compile: two concurrent recompiles of the same
// key must not share a Session mid-flight.
type keyedSession struct {
	mu   sync.Mutex
	s    *pipeline.Session
	tick uint64 // last-use order under Service.incrMu, for LRU eviction
}

// NewService constructs a compile service.
func NewService(opts ServiceOptions) *Service {
	conc := opts.MaxConcurrent
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	sv := &Service{
		base:  opts.Base,
		cache: solver.NewMemoCache(opts.MemoCacheCap),
		table: dpl.Default(),
		sem:   make(chan struct{}, conc),
	}
	if opts.InternMaxEntries > 0 {
		sv.table.SetMaxEntries(opts.InternMaxEntries)
	}
	sv.incrMax = opts.MaxIncrementalSessions
	if sv.incrMax <= 0 {
		sv.incrMax = 64
	}
	return sv
}

// Compile compiles source text with the service's base options.
func (sv *Service) Compile(src string) (*Compiled, error) {
	return sv.CompileWith(src, sv.base)
}

// CompileWith compiles source text with per-request options. A nil
// opts.Trace inherits the service's trace writer; concurrent compiles
// tracing to one writer emit whole, never interleaved, JSON lines.
func (sv *Service) CompileWith(src string, opts Options) (*Compiled, error) {
	if opts.Trace == nil {
		opts.Trace = sv.base.Trace
	}
	sv.sem <- struct{}{}
	defer func() { <-sv.sem }()

	// Pin the intern table's current generation: ids handed out during
	// this compile stay coherent until Leave, even if the table is over
	// its bound.
	ep := sv.table.Enter()
	defer ep.Leave()

	s := pipeline.NewSession(src, pipeline.Config{
		DisableRelaxation:           opts.DisableRelaxation,
		DisablePrivateSubPartitions: opts.DisablePrivateSubPartitions,
		SolverCache:                 sv.cache,
	})
	c, _, err := runSessionGuarded(s, opts)
	if err != nil {
		sv.failures.Add(1)
		return nil, err
	}
	sv.compiles.Add(1)
	return c, nil
}

// CompileIncremental compiles source under a caller-chosen key with the
// service's base options, reusing the front-half artifacts retained
// from the previous compile of the same key for every unedited loop.
// Output is byte-identical to Compile on the same source; only the work
// performed differs. Unrelated sources under one key are safe (the diff
// falls back to a cold compile) but waste the retained state.
func (sv *Service) CompileIncremental(key, src string) (*Compiled, error) {
	return sv.CompileIncrementalWith(key, src, sv.base)
}

// CompileIncrementalWith is CompileIncremental with per-request
// options. Changing semantic options between compiles of one key is
// safe: the retained state records the options it was built under and a
// mismatch recompiles cold.
func (sv *Service) CompileIncrementalWith(key, src string, opts Options) (*Compiled, error) {
	if opts.Trace == nil {
		opts.Trace = sv.base.Trace
	}
	ks := sv.keyedSession(key)
	// Hold the key's lock for the whole compile, then the global
	// concurrency slot. Slot holders never wait on a key they do not
	// already hold, so the ordering cannot deadlock.
	ks.mu.Lock()
	defer ks.mu.Unlock()
	sv.sem <- struct{}{}
	defer func() { <-sv.sem }()

	ep := sv.table.Enter()
	defer ep.Leave()

	s := ks.s
	s.Reset(src, pipeline.Config{
		DisableRelaxation:           opts.DisableRelaxation,
		DisablePrivateSubPartitions: opts.DisablePrivateSubPartitions,
		SolverCache:                 sv.cache,
		Incremental:                 true,
	})
	c, panicked, err := runSessionGuarded(s, opts)
	if panicked {
		// Discard the poisoned session, retained artifacts and all; the
		// key's next compile starts clean.
		ks.s = &pipeline.Session{}
	}
	if err != nil {
		sv.failures.Add(1)
		return nil, err
	}
	sv.compiles.Add(1)
	sv.incrCompiles.Add(1)
	m := s.Metrics()
	sv.incrCold.Add(uint64(m["incr_cold"]))
	sv.incrClean.Add(uint64(m["incr_clean_loops"]))
	sv.incrDirty.Add(uint64(m["incr_dirty_loops"]))
	return c, nil
}

// keyedSession finds or creates the session slot for an incremental
// key, evicting the least recently used slot past the bound.
func (sv *Service) keyedSession(key string) *keyedSession {
	sv.incrMu.Lock()
	defer sv.incrMu.Unlock()
	if sv.incrSessions == nil {
		sv.incrSessions = make(map[string]*keyedSession)
	}
	ks, ok := sv.incrSessions[key]
	if !ok {
		if len(sv.incrSessions) >= sv.incrMax {
			var lruKey string
			var lruTick uint64
			first := true
			for k, v := range sv.incrSessions {
				if first || v.tick < lruTick {
					lruKey, lruTick, first = k, v.tick, false
				}
			}
			// An evicted slot that is mid-compile finishes on its own
			// session; only the map entry goes away.
			delete(sv.incrSessions, lruKey)
		}
		ks = &keyedSession{s: &pipeline.Session{}}
		sv.incrSessions[key] = ks
	}
	sv.incrTick++
	ks.tick = sv.incrTick
	return ks
}

// runSessionGuarded runs the pipeline, converting a pass panic into an
// error. The boolean tells the caller the session is poisoned and must
// be discarded rather than retained.
func runSessionGuarded(s *pipeline.Session, opts Options) (c *Compiled, panicked bool, err error) {
	done := false
	defer func() {
		if done {
			return
		}
		panicked = true
		c, err = nil, fmt.Errorf("autopart: internal error: compile panicked: %v", recover())
	}()
	c, _, err = runSession(s, opts)
	done = true
	return c, false, err
}

// ServiceStats is a point-in-time snapshot of service activity.
type ServiceStats struct {
	// Compiles and Failures count completed requests since construction.
	Compiles, Failures uint64
	// InFlight is the number of compiles currently executing.
	InFlight int
	// MaxConcurrent is the configured concurrency bound.
	MaxConcurrent int
	// Memo snapshots the shared solver memo cache.
	Memo solver.MemoCacheStats
	// InternEntries is the shared intern table's live entry count;
	// InternGeneration and InternReclaims count rebuilds (an id is only
	// meaningful within one generation).
	InternEntries    int
	InternGeneration uint64
	InternReclaims   uint64
	// IncrementalCompiles counts successful CompileIncremental requests;
	// IncrementalCold counts those that fell back to a full cold
	// frontend. IncrementalCleanLoops and IncrementalDirtyLoops total
	// the loops reused versus re-run across all incremental compiles.
	// IncrementalSessions is the number of keyed sessions currently
	// retained.
	IncrementalCompiles   uint64
	IncrementalCold       uint64
	IncrementalCleanLoops uint64
	IncrementalDirtyLoops uint64
	IncrementalSessions   int
}

// Stats snapshots the service counters, the shared memo cache, and the
// intern table.
func (sv *Service) Stats() ServiceStats {
	sv.incrMu.Lock()
	incrSessions := len(sv.incrSessions)
	sv.incrMu.Unlock()
	return ServiceStats{
		Compiles:              sv.compiles.Load(),
		Failures:              sv.failures.Load(),
		InFlight:              len(sv.sem),
		MaxConcurrent:         cap(sv.sem),
		Memo:                  sv.cache.Stats(),
		InternEntries:         sv.table.Entries(),
		InternGeneration:      sv.table.Generation(),
		InternReclaims:        sv.table.Reclaims(),
		IncrementalCompiles:   sv.incrCompiles.Load(),
		IncrementalCold:       sv.incrCold.Load(),
		IncrementalCleanLoops: sv.incrClean.Load(),
		IncrementalDirtyLoops: sv.incrDirty.Load(),
		IncrementalSessions:   incrSessions,
	}
}

// MemoCache exposes the shared solver cache (for benchmarks that
// pre-warm or inspect it).
func (sv *Service) MemoCache() *solver.MemoCache { return sv.cache }
