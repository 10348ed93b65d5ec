package solver

import (
	"sort"
	"sync"

	"autopart/internal/constraint"
	"autopart/internal/dpl"
)

// MemoCache is a bounded, concurrency-safe store for the solver's three
// verdict memos — solvability (Algorithm 3 candidate checks),
// closed-conjunct proofs, and refuted search subtrees — shared across
// compiles. Verdicts are deterministic functions of (a) the constraint
// system's 128-bit content fingerprint and (b) the solving context (the
// external assumption system and symbol set), so entries stay valid for
// the lifetime of the process: the cache key combines both, and content
// fingerprints are independent of intern-table generations, so epoch
// reclamation of the dpl table never invalidates the cache.
//
// A Service injects one MemoCache into every compile it runs; the
// thousandth compile of a near-identical program then finds nearly all
// of its verdicts precomputed. A Solver constructed without an injected
// cache gets a private one sized so it never evicts within a compile,
// reproducing the old per-compile maps exactly.
//
// Bounding uses two rotating generations (a segmented LRU): inserts go
// to the current generation; when it fills, the previous generation is
// dropped (counted as evictions) and the current one takes its place.
// Lookups hit both generations and promote previous-generation hits, so
// hot entries survive rotation while stale ones age out. Memory is
// therefore bounded by ~2× the configured capacity.
type MemoCache struct {
	mu       sync.Mutex
	cap      int
	verdicts twoGen[bool]
	// hits/misses count verdict-cache lookups (solvable + closed): every
	// miss is work a warmer cache would have skipped. nodeHits/nodeMisses
	// count refuted-subtree lookups separately — that memo is a
	// blocklist (only refutations are ever stored; absence is the steady
	// state for solvable subtrees), so its absences are not cache
	// failures and must not dilute the hit rate.
	hits, misses         uint64
	nodeHits, nodeMisses uint64

	// The unification-round memo caches Algorithm 3's per-round greedy
	// winner (the committed rename set, or the absence of one) keyed by
	// the round's complete deterministic input: solving context plus
	// order-sensitive fingerprints of the accumulated and incoming
	// systems. Recompiles of a near-identical program replay the same
	// rounds, so a warm service skips subgraph matching and candidate
	// solvability checks entirely for every unchanged round. Bounded by
	// the same two-generation rotation as the verdicts.
	rounds                 twoGen[unifyWinner]
	unifyHits, unifyMisses uint64
}

// twoGen is one two-generation rotating map: inserts go to cur; when
// cur holds limit entries, old is dropped (counted in evictions) and cur
// takes its place. Lookups hit both generations and promote old hits.
// The caller serializes access.
type twoGen[V any] struct {
	cur, old  map[memoKey]V
	evictions uint64
}

// get returns the value stored under k, promoting an old-generation hit
// into the current generation.
func (g *twoGen[V]) get(k memoKey, limit int) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	v, ok := g.old[k]
	if ok {
		g.put(k, v, limit)
	}
	return v, ok
}

// put stores v under k, rotating generations at capacity.
func (g *twoGen[V]) put(k memoKey, v V, limit int) {
	if g.cur == nil {
		g.cur = map[memoKey]V{}
	} else if len(g.cur) >= limit {
		g.evictions += uint64(len(g.old))
		g.old = g.cur
		g.cur = make(map[memoKey]V, 1024)
	}
	g.cur[k] = v
}

func (g *twoGen[V]) len() int { return len(g.cur) + len(g.old) }

// unifyWinner is one memoized unification-round outcome. A nil Renames
// with ok=true records "no winner: stop unifying this system".
type unifyWinner struct {
	renames []renamePair
}

// renamePair is one from→to symbol rename, stored sorted for
// deterministic replay.
type renamePair struct{ from, to string }

// DefaultMemoCacheCap is the per-generation entry capacity used when
// NewMemoCache is given a non-positive capacity.
const DefaultMemoCacheCap = 1 << 18

// privateMemoCap sizes the private cache of a Solver constructed without
// an injected one: large enough that no realistic single compile ever
// rotates, preserving the exact behavior of the former unbounded maps.
const privateMemoCap = 1 << 20

// memoKind namespaces the three verdict families within one cache.
type memoKind uint8

const (
	memoSolvable memoKind = iota
	memoClosed
	memoNode
	memoUnify
)

// memoKey is one cache entry's identity: verdict family, solving-context
// fingerprint, and system fingerprint.
type memoKey struct {
	kind memoKind
	ctx  [2]uint64
	fp   [2]uint64
}

// NewMemoCache returns a cache bounded at roughly 2×capacity entries
// (capacity <= 0 selects DefaultMemoCacheCap).
func NewMemoCache(capacity int) *MemoCache {
	if capacity <= 0 {
		capacity = DefaultMemoCacheCap
	}
	return &MemoCache{cap: capacity}
}

// lookup returns the cached verdict and whether it was present,
// promoting previous-generation hits into the current generation.
func (c *MemoCache) lookup(k memoKey) (verdict, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	verdict, ok = c.verdicts.get(k, c.cap)
	c.countLocked(k.kind, ok)
	return verdict, ok
}

func (c *MemoCache) countLocked(kind memoKind, hit bool) {
	switch {
	case kind == memoNode && hit:
		c.nodeHits++
	case kind == memoNode:
		c.nodeMisses++
	case hit:
		c.hits++
	default:
		c.misses++
	}
}

// store records a verdict, rotating generations at capacity.
func (c *MemoCache) store(k memoKey, v bool) {
	c.mu.Lock()
	c.verdicts.put(k, v, c.cap)
	c.mu.Unlock()
}

// lookupUnify returns the memoized round winner for k, if present.
func (c *MemoCache) lookupUnify(k memoKey) (unifyWinner, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.rounds.get(k, c.cap)
	if ok {
		c.unifyHits++
	} else {
		c.unifyMisses++
	}
	return w, ok
}

// storeUnify records a round winner, rotating generations at capacity.
func (c *MemoCache) storeUnify(k memoKey, w unifyWinner) {
	c.mu.Lock()
	c.rounds.put(k, w, c.cap)
	c.mu.Unlock()
}

// MemoCacheStats is a point-in-time snapshot of cache activity.
type MemoCacheStats struct {
	// Hits and Misses count verdict-cache lookups (solvability and
	// closed-conjunct proofs) across all compiles sharing the cache
	// since construction.
	Hits, Misses uint64
	// NodeHits and NodeMisses count refuted-subtree blocklist lookups.
	// They are reported separately because only refutations are stored:
	// a blocklist absence is the expected steady state, not avoidable
	// work, so these do not feed HitRate.
	NodeHits, NodeMisses uint64
	// UnifyHits and UnifyMisses count unification-round memo lookups;
	// every hit skips one round of subgraph matching and candidate
	// solvability checks.
	UnifyHits, UnifyMisses uint64
	// Evictions counts entries dropped by generation rotation.
	Evictions uint64
	// Entries is the current live entry count (both generations).
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 with no lookups.
func (s MemoCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *MemoCache) Stats() MemoCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoCacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		NodeHits:    c.nodeHits,
		NodeMisses:  c.nodeMisses,
		UnifyHits:   c.unifyHits,
		UnifyMisses: c.unifyMisses,
		Evictions:   c.verdicts.evictions + c.rounds.evictions,
		Entries:     c.verdicts.len() + c.rounds.len(),
	}
}

// contextFingerprint derives the solving-context half of every memo key:
// a 128-bit digest of the external assumption system and the external
// symbol set. Two Solvers with equal contexts produce interchangeable
// verdicts for equal systems; two different contexts never share keys,
// which is what makes one process-wide cache sound across arbitrary
// programs.
func contextFingerprint(external *constraint.System, externalSyms []string, partialFns map[string]bool) [2]uint64 {
	fp := external.Fingerprint128()
	syms := append([]string(nil), externalSyms...)
	sort.Strings(syms)
	for _, sym := range syms {
		h := dpl.HashString128(sym)
		fp[0] = fp[0]*0x9e3779b97f4a7c15 ^ h[0]
		fp[1] = fp[1]*0xc2b2ae3d27d4eb4f ^ h[1]
	}
	// The declared-partial function set changes prover verdicts (L7 is
	// refused on partial functions), so it is part of the solving
	// context a shared cache keys on. Mixed with distinct multipliers so
	// "h external" and "h partial" cannot collide.
	if len(partialFns) > 0 {
		fns := make([]string, 0, len(partialFns))
		for fn, partial := range partialFns {
			if partial {
				fns = append(fns, fn)
			}
		}
		sort.Strings(fns)
		for _, fn := range fns {
			h := dpl.HashString128(fn)
			fp[0] = fp[0]*0xc2b2ae3d27d4eb4f ^ h[1]
			fp[1] = fp[1]*0x9e3779b97f4a7c15 ^ h[0]
		}
	}
	return fp
}
