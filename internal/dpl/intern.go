package dpl

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Expression interning (hash-consing).
//
// Every Expr implementation is an immutable value struct, and the interner
// maps each distinct expression to an exprInfo carrying everything the
// solver repeatedly recomputes — the canonical string (Key/String), the
// sorted free-variable list, the node count, and a stable numeric id used
// to fingerprint constraint systems. Each is computed once per distinct
// expression instead of once per query, which turns Key, FreeVars, Size,
// and Closed into O(1) lookups on the solver's hot paths (Algorithm 2
// backtracking, the Algorithm 3 solvability checks).
//
// The table has one map per key shape: instead of one map keyed by the
// Expr interface value (whose lookups must hash the full nested struct
// through reflection-driven interface hashing), each constructor is keyed
// by the fields that determine structural identity, with child
// expressions represented by their interned ids. A Var interns on its
// name, an EqualExpr on its region, the four image/preimage constructors
// share one map on (constructor, Of.id, Func, Region), and a BinExpr
// interns on (Op, L.id, R.id). Because equal children share an id by
// induction, these flat keys are equivalent to structural equality on the
// full tree — but a lookup hashes a couple of words and a short string
// instead of walking the whole expression.
//
// Table instances and lifetime: the interner is an instance type (Table)
// rather than package-global state, so a long-lived compile service can
// bound it. One process-wide Default table backs the package-level
// functions; all compiles in a process share it, which is the point —
// the thousandth compile of a near-identical program finds its
// expressions already interned. Every map of a table is a read-mostly
// rmap: a lookup of a published entry takes no lock, a first sight
// goes into a locked dirty map (first writer wins), and an insert never
// copies the table. A table is safe for concurrent use; the parallel
// unification checks intern from multiple goroutines.
//
// Epoch-based reclamation bounds a table. Interned ids (expression ids
// and dense symbol ids) are only meaningful relative to one table
// generation: after a reclamation the table restarts empty and reassigns
// ids, so two expressions from different generations may share an id. A
// compile therefore pins the generation for its whole duration by holding
// an Epoch (Enter/Leave); reclamation requested by SetMaxEntries overflow
// is deferred until the last active epoch leaves, at which point the
// expression maps and the symbol table are emptied and the generation
// counter advances. Content hashes (Hash128) depend only on the
// canonical rendering, so caches keyed by them — the solver's
// cross-compile memo cache in particular — survive reclamation unharmed.
// Code that interns outside any epoch is only safe against an unbounded
// table (the default); bounded tables are a compile-service concern, and
// the service wraps every compile in an epoch.

// Table is one expression + symbol intern table instance: one map per
// expression key shape, the dense symbol table, per-instance stats
// counters, and the epoch/reclamation machinery. Construct it with
// NewTable.
type Table struct {
	vars   rmap[string, *exprInfo] // Var by name
	equals rmap[string, *exprInfo] // EqualExpr by region
	ops    rmap[opKey, *exprInfo]  // the four image/preimage constructors
	bins   rmap[binKey, *exprInfo] // BinExpr
	syms   Names

	seq   atomic.Uint64           // last expression id handed out
	sizes [numShards]atomic.Int64 // entries per constructor

	// statsOn gates the per-shard hit/miss counters. Off by default so
	// the hot path pays only one atomic bool load. statsGen advances on
	// every EnableStats(true) so Stats can detect a concurrent reset and
	// return a snapshot-consistent view.
	statsOn  atomic.Bool
	statsGen atomic.Uint64
	hits     [numShards]atomic.Uint64
	misses   [numShards]atomic.Uint64

	// Epoch state, all under epochMu. maxEntries and reclaims are
	// atomics so the insert path and stats readers need no lock.
	epochMu    sync.Mutex
	active     int64 // epochs currently held
	needsReset bool  // reclamation requested, waiting for active == 0
	generation uint64
	maxEntries atomic.Int64
	reclaims   atomic.Uint64
}

// NewTable returns an empty, unbounded intern table.
func NewTable() *Table { return &Table{} }

// defaultTable backs the package-level functions. Every compile in the
// process shares it unless a caller threads its own Table explicitly.
var defaultTable = NewTable()

// Default returns the shared process-wide intern table.
func Default() *Table { return defaultTable }

// Epoch pins one table generation: while any epoch is held, the table
// will not reclaim, so every id observed inside the epoch stays unique
// and coherent. Compiles hold exactly one epoch for their duration.
type Epoch struct {
	t    *Table
	gen  uint64
	done atomic.Bool
}

// Enter opens an epoch on the table. The caller must Leave it.
func (t *Table) Enter() *Epoch {
	t.epochMu.Lock()
	t.active++
	gen := t.generation
	t.epochMu.Unlock()
	return &Epoch{t: t, gen: gen}
}

// Leave closes the epoch. When the last active epoch leaves and a
// reclamation is pending, the table resets there and then. Leave is
// idempotent.
func (e *Epoch) Leave() {
	if !e.done.CompareAndSwap(false, true) {
		return
	}
	t := e.t
	t.epochMu.Lock()
	t.active--
	if t.active == 0 && t.needsReset {
		t.resetLocked()
	}
	t.epochMu.Unlock()
}

// Generation reports the table generation the epoch pinned.
func (e *Epoch) Generation() uint64 { return e.gen }

// Generation returns the table's current generation (it advances by one
// per reclamation).
func (t *Table) Generation() uint64 {
	t.epochMu.Lock()
	defer t.epochMu.Unlock()
	return t.generation
}

// Reclaims reports how many times the table has been reclaimed.
func (t *Table) Reclaims() uint64 { return t.reclaims.Load() }

// Entries reports the current number of interned expressions.
func (t *Table) Entries() int {
	n := int64(0)
	for i := range t.sizes {
		n += t.sizes[i].Load()
	}
	return int(n)
}

// SetMaxEntries bounds the table: once the expression entry count
// exceeds n, a reclamation is scheduled and performed as soon as no
// epoch is active. A table already over the new bound is scheduled
// immediately. n <= 0 means unbounded (the default).
func (t *Table) SetMaxEntries(n int) {
	t.maxEntries.Store(int64(n))
	if n <= 0 {
		return
	}
	t.noteGrowth()
}

// Reset discards every entry immediately, bumping the generation. It
// refuses (returning false) while any epoch is active, because live
// compiles hold ids of the current generation. Intended for benchmarks
// ("cold cache" batches) and tests.
func (t *Table) Reset() bool {
	t.epochMu.Lock()
	defer t.epochMu.Unlock()
	if t.active > 0 {
		return false
	}
	t.resetLocked()
	return true
}

// resetLocked empties the table. Caller holds epochMu with active == 0,
// so no epoch-holding reader can observe the reset midway; readers
// outside any epoch must tolerate id reassignment (only safe on
// unbounded tables, where this path never runs spontaneously).
func (t *Table) resetLocked() {
	t.vars.reset()
	t.equals.reset()
	t.ops.reset()
	t.bins.reset()
	t.syms.reset()
	t.seq.Store(0)
	for i := range t.sizes {
		t.sizes[i].Store(0)
	}
	t.generation++
	t.reclaims.Add(1)
	t.needsReset = false
}

// noteGrowth checks the bound after an insert raised the entry count,
// scheduling (or, with no active epochs, performing) a reclamation on
// overflow. Called with no map lock held — resetLocked takes them, and
// lock order is epochMu before any map lock everywhere.
func (t *Table) noteGrowth() {
	max := t.maxEntries.Load()
	if max <= 0 || int64(t.Entries()) <= max {
		return
	}
	t.epochMu.Lock()
	t.needsReset = true
	if t.active == 0 {
		t.resetLocked()
	}
	t.epochMu.Unlock()
}

// Symbol interning: every partition symbol name maps to a dense int32
// id (0, 1, 2, ... in first-sight order). The solver's backtracking
// search keys its per-node maps and sets by these ids instead of by
// name — int32 hashing beats string hashing on the hot paths, and the
// density admits bitsets (SymSet). Like expression ids, symbol ids are
// stable within a table generation but not across runs or reclamations;
// they never appear in output.

// SymID returns the dense interned id of a symbol name, assigning the
// next id on first sight. Safe for concurrent use.
func (t *Table) SymID(name string) int32 { return t.syms.ID(name) }

// SymName returns the name behind an interned symbol id.
func (t *Table) SymName(id int32) string { return t.syms.Name(id) }

// SymID interns a symbol name in the default table.
func SymID(name string) int32 { return defaultTable.SymID(name) }

// SymName resolves a symbol id against the default table.
func SymName(id int32) string { return defaultTable.SymName(id) }

// SymSet is a bitset over dense symbol ids. The zero value is empty.
type SymSet []uint64

// Add inserts an id, growing the set as needed.
func (s *SymSet) Add(id int32) {
	w := int(id >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// Has reports membership; ids beyond the set's capacity are absent.
func (s SymSet) Has(id int32) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// exprInfo is the interned metadata of one distinct expression value.
type exprInfo struct {
	// id is an identifier unique within one table generation; equal
	// expressions share it. Assignment order depends on evaluation
	// order, so ids are stable within a generation but not across runs —
	// they feed in-memory fingerprints only, never persisted or printed
	// output.
	id uint64
	// key is the canonical rendering (identical to the paper syntax the
	// String methods produce).
	key string
	// fvs lists the free partition symbols, sorted and deduplicated.
	// Callers must not mutate it.
	fvs []string
	// fvIDs holds the interned ids of fvs, aligned entry by entry.
	// Callers must not mutate it.
	fvIDs []int32
	// size is the AST node count.
	size int
	// h is a 128-bit content hash of the canonical key, computed from
	// two independent FNV-1a passes. It feeds the constraint-system
	// fingerprints: unlike id, it is stable across runs and independent
	// of interning order.
	h [2]uint64
	// fvMask is a 64-bit Bloom filter over fvs (one SymBit per symbol).
	// A clear bit certainly excludes a symbol; a set bit means "maybe".
	fvMask uint64
}

// SymBit returns the Bloom-filter bit of a symbol name (FNV-1a of the
// name reduced to one of 64 bit positions). Mask tests using it are
// one-sided: mask&SymBit(name) == 0 proves name absent, a set bit only
// suggests presence and callers must confirm with Mentions.
func SymBit(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return 1 << (h & 63)
}

// FvMask returns the interned free-variable Bloom mask of e. Mask zero
// means e is ground (no free symbols) — that direction is exact.
func FvMask(e Expr) uint64 { return info(e).fvMask }

// FvInfo returns the mask, the free-variable list, and the aligned
// interned symbol ids with a single intern-table lookup. Both slices
// are interned and shared: callers must not mutate them.
func FvInfo(e Expr) (uint64, []string, []int32) {
	in := info(e)
	return in.fvMask, in.fvs, in.fvIDs
}

// FvIDs returns the interned symbol ids of e's free variables, aligned
// with FreeVars. The slice is interned: callers must not mutate it.
func FvIDs(e Expr) []int32 { return info(e).fvIDs }

// hash128 derives the two content hashes from the canonical key: FNV-1a
// with the standard parameters, and a second pass with a different
// offset basis and multiplier so collisions in one hash are independent
// of collisions in the other.
func hash128(key string) [2]uint64 {
	const (
		offset1 = 14695981039346656037
		prime1  = 1099511628211
		offset2 = 0x9e3779b97f4a7c15
		prime2  = 0x00000100000001b5
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	for i := 0; i < len(key); i++ {
		b := uint64(key[i])
		h1 = (h1 ^ b) * prime1
		h2 = (h2 ^ b) * prime2
	}
	return [2]uint64{h1, h2}
}

// Hash128 returns the interned 128-bit content hash of e, stable across
// processes and table generations (it depends only on the canonical
// rendering).
func Hash128(e Expr) [2]uint64 { return info(e).h }

// HashString128 hashes an arbitrary string with the same pair of hash
// functions, for callers combining expression hashes with other fields
// (e.g. predicate regions).
func HashString128(s string) [2]uint64 { return hash128(s) }

// Hasher128 is the streaming form of HashString128: feeding it bytes
// piecewise yields exactly HashString128 of their concatenation,
// without materializing the concatenation. The zero value is not ready
// for use; construct with NewHasher128.
type Hasher128 struct {
	h1, h2 uint64
}

// NewHasher128 returns a streaming hasher in its initial state.
func NewHasher128() Hasher128 {
	return Hasher128{h1: 14695981039346656037, h2: 0x9e3779b97f4a7c15}
}

// WriteString folds s into the running hashes.
func (h *Hasher128) WriteString(s string) {
	const (
		prime1 = 1099511628211
		prime2 = 0x00000100000001b5
	)
	h1, h2 := h.h1, h.h2
	for i := 0; i < len(s); i++ {
		b := uint64(s[i])
		h1 = (h1 ^ b) * prime1
		h2 = (h2 ^ b) * prime2
	}
	h.h1, h.h2 = h1, h2
}

// WriteByte folds one byte into the running hashes. The error is always
// nil; the signature matches io.ByteWriter.
func (h *Hasher128) WriteByte(b byte) error {
	const (
		prime1 = 1099511628211
		prime2 = 0x00000100000001b5
	)
	h.h1 = (h.h1 ^ uint64(b)) * prime1
	h.h2 = (h.h2 ^ uint64(b)) * prime2
	return nil
}

// Sum128 returns the hash of everything written so far.
func (h *Hasher128) Sum128() [2]uint64 { return [2]uint64{h.h1, h.h2} }

// opKey identifies an image/preimage expression by its interned child,
// its constructor and the two string fields. The four unary-op
// constructors share one map; the shard field keeps them apart. It
// follows of so that the two hash as one run of memory.
type opKey struct {
	of    uint64 // interned id of the operand expression
	shard uint8  // shardImage, shardPreimage, shardImageMulti or shardPreimageMulti
	fn    string
	reg   string
}

// binKey identifies a BinExpr by operator and interned operand ids.
type binKey struct {
	op   BinOp
	l, r uint64
}

// Shard indices for the stats counters, one per constructor.
const (
	shardVar = iota
	shardEqual
	shardImage
	shardPreimage
	shardImageMulti
	shardPreimageMulti
	shardBin
	numShards
)

var shardNames = [numShards]string{
	"var", "equal", "image", "preimage", "imageMulti", "preimageMulti", "bin",
}

// EnableStats toggles per-shard hit/miss counting on the intern fast
// path of this table. Enabling resets the counters, so a caller can
// bracket one workload and read a clean profile with Stats. The
// counters are per-table-instance: toggling one table never perturbs
// another (the old package-global toggle raced against concurrent
// compiles on unrelated tables).
func (t *Table) EnableStats(on bool) {
	if on {
		t.statsGen.Add(1)
		for i := range t.hits {
			t.hits[i].Store(0)
			t.misses[i].Store(0)
		}
	}
	t.statsOn.Store(on)
}

// EnableInternStats toggles stats on the default table.
func EnableInternStats(on bool) { defaultTable.EnableStats(on) }

// InternShardStat reports one shard's size and (if stats were enabled)
// fast-path hit/miss counts.
type InternShardStat struct {
	Shard   string `json:"shard"`
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats returns a per-shard snapshot of the table, ordered by shard
// name. Entry counts are always live; hit/miss counts reflect lookups
// since the last EnableStats(true). The read is snapshot-consistent
// against concurrent EnableStats resets: if a reset lands mid-read the
// whole read retries, so a snapshot never mixes counters from two
// enable windows.
func (t *Table) Stats() []InternShardStat {
	for {
		gen := t.statsGen.Load()
		out := make([]InternShardStat, numShards)
		for i := range out {
			out[i] = InternShardStat{
				Shard:   shardNames[i],
				Entries: int(t.sizes[i].Load()),
				Hits:    t.hits[i].Load(),
				Misses:  t.misses[i].Load(),
			}
		}
		if t.statsGen.Load() == gen {
			return out
		}
	}
}

// InternStats returns the default table's per-shard snapshot.
func InternStats() []InternShardStat { return defaultTable.Stats() }

// info returns the interned metadata for e against the default table.
func info(e Expr) *exprInfo { return defaultTable.info(e) }

// ID returns e's interned identifier in this table.
func (t *Table) ID(e Expr) uint64 { return t.info(e).id }

// Key returns e's canonical rendering via this table.
func (t *Table) Key(e Expr) string { return t.info(e).key }

// info returns the interned metadata for e, computing and caching it on
// first sight. e must be non-nil.
//
// The fast path interns composite expressions bottom-up: looking up an
// ImageExpr first interns its operand (usually a hit) to obtain the id
// the map key needs. That keeps every map lookup flat — no interface
// hashing of nested trees — at the cost of one recursion level per AST
// node on the first sight of each subtree. Each hit inlines into info
// (a lookup plus a call is over the compiler's inlining budget, so the
// call to intern stays here); the four image/preimage constructors share
// one tail.
func (t *Table) info(e Expr) *exprInfo {
	var k opKey
	switch x := e.(type) {
	case Var:
		if in, ok := hit(t, &t.vars, x.Name); ok {
			return in
		}
		return intern(t, &t.vars, x.Name, shardVar, e)
	case EqualExpr:
		if in, ok := hit(t, &t.equals, x.Region); ok {
			return in
		}
		return intern(t, &t.equals, x.Region, shardEqual, e)
	case BinExpr:
		kb := binKey{x.Op, t.info(x.L).id, t.info(x.R).id}
		if in, ok := hit(t, &t.bins, kb); ok {
			return in
		}
		return intern(t, &t.bins, kb, shardBin, e)
	case ImageExpr:
		k = opKey{t.info(x.Of).id, shardImage, x.Func, x.Region}
	case PreimageExpr:
		k = opKey{t.info(x.Of).id, shardPreimage, x.Func, x.Region}
	case ImageMultiExpr:
		k = opKey{t.info(x.Of).id, shardImageMulti, x.Func, x.Region}
	case PreimageMultiExpr:
		k = opKey{t.info(x.Of).id, shardPreimageMulti, x.Func, x.Region}
	default:
		// Unreachable (isExpr restricts implementations to this package);
		// hand back the computed metadata without caching it.
		in := t.computeInfo(e)
		in.id = t.seq.Add(1)
		return in
	}
	if in, ok := hit(t, &t.ops, k); ok {
		return in
	}
	return intern(t, &t.ops, k, int(k.shard), e)
}

// hit is the lock-free lookup of a published entry. It reports a miss
// while stats are on, so that intern counts every lookup.
func hit[K comparable](t *Table, m *rmap[K, *exprInfo], k K) (*exprInfo, bool) {
	in, ok := m.load(k)
	return in, ok && !t.statsOn.Load()
}

// intern counts the lookup when stats are on and inserts a newly seen
// expression under k. The metadata is computed before any lock is
// taken: computeInfo recursively interns every child, which may lock
// this same map.
func intern[K comparable](t *Table, m *rmap[K, *exprInfo], k K, shard int, e Expr) *exprInfo {
	in, ok := m.load(k)
	if !ok {
		in, ok = m.loadSlow(k)
	}
	if t.statsOn.Load() {
		if ok {
			t.hits[shard].Add(1)
		} else {
			t.misses[shard].Add(1)
		}
	}
	if ok {
		return in
	}
	in = t.computeInfo(e)
	// A writer that loses the race wastes its id; ids stay unique.
	in.id = t.seq.Add(1)
	in, stored := m.loadOrStore(k, in)
	if stored {
		t.sizes[shard].Add(1)
		t.noteGrowth()
	}
	return in
}

// computeInfo builds the metadata for e from its (recursively interned)
// children. It runs outside the intern lock; duplicate concurrent
// computation is harmless because insertion is first-writer-wins.
func (t *Table) computeInfo(e Expr) *exprInfo {
	in := t.computeInfoNoHash(e)
	in.h = hash128(in.key)
	if len(in.fvs) > 0 {
		in.fvIDs = make([]int32, len(in.fvs))
	}
	for i, v := range in.fvs {
		in.fvMask |= SymBit(v)
		in.fvIDs[i] = t.SymID(v)
	}
	return in
}

func (t *Table) computeInfoNoHash(e Expr) *exprInfo {
	var sb strings.Builder
	switch x := e.(type) {
	case Var:
		return &exprInfo{key: x.Name, fvs: []string{x.Name}, size: 1}
	case EqualExpr:
		sb.WriteString("equal(")
		sb.WriteString(x.Region)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), size: 1}
	case ImageExpr:
		of := t.info(x.Of)
		sb.WriteString("image(")
		sb.WriteString(of.key)
		sb.WriteString(", ")
		sb.WriteString(x.Func)
		sb.WriteString(", ")
		sb.WriteString(x.Region)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), fvs: of.fvs, size: 1 + of.size}
	case PreimageExpr:
		of := t.info(x.Of)
		sb.WriteString("preimage(")
		sb.WriteString(x.Region)
		sb.WriteString(", ")
		sb.WriteString(x.Func)
		sb.WriteString(", ")
		sb.WriteString(of.key)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), fvs: of.fvs, size: 1 + of.size}
	case ImageMultiExpr:
		of := t.info(x.Of)
		sb.WriteString("IMAGE(")
		sb.WriteString(of.key)
		sb.WriteString(", ")
		sb.WriteString(x.Func)
		sb.WriteString(", ")
		sb.WriteString(x.Region)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), fvs: of.fvs, size: 1 + of.size}
	case PreimageMultiExpr:
		of := t.info(x.Of)
		sb.WriteString("PREIMAGE(")
		sb.WriteString(x.Region)
		sb.WriteString(", ")
		sb.WriteString(x.Func)
		sb.WriteString(", ")
		sb.WriteString(of.key)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), fvs: of.fvs, size: 1 + of.size}
	case BinExpr:
		l, r := t.info(x.L), t.info(x.R)
		sb.WriteString("(")
		sb.WriteString(l.key)
		sb.WriteString(" ")
		sb.WriteString(x.Op.String())
		sb.WriteString(" ")
		sb.WriteString(r.key)
		sb.WriteString(")")
		return &exprInfo{key: sb.String(), fvs: mergeVars(l.fvs, r.fvs), size: 1 + l.size + r.size}
	default:
		// Unreachable: isExpr restricts implementations to this package.
		return &exprInfo{key: "?", size: 1}
	}
}

// mergeVars merges two sorted deduplicated symbol lists.
func mergeVars(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ID returns the interned identifier of e: equal expressions share an id,
// distinct expressions never do. Ids are stable within a table
// generation (they feed in-memory fingerprints) but not across runs or
// reclamations.
func ID(e Expr) uint64 { return info(e).id }

// Mentions reports whether the symbol name occurs free in e, using the
// interned (sorted) free-variable list.
func Mentions(e Expr, name string) bool {
	fvs := info(e).fvs
	i := sort.SearchStrings(fvs, name)
	return i < len(fvs) && fvs[i] == name
}
