// Package constraint implements the partitioning constraint language of
// Fig. 5: subset constraints between partition expressions and the
// PART/DISJ/COMP predicates, together with the lemma library of Fig. 8 as
// an entailment prover and the constraint-graph view used by unification.
//
// Expressions are shared with package dpl, exactly as in the paper where
// DPL operators appear syntactically inside constraints.
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"autopart/internal/dpl"
)

// PredKind identifies a predicate.
type PredKind int

// Predicate kinds.
const (
	// Part is PART(E, R): E is a partition of region R.
	Part PredKind = iota
	// Disj is DISJ(E): E's subregions are pairwise disjoint.
	Disj
	// Comp is COMP(E, R): E's subregions cover R.
	Comp
)

func (k PredKind) String() string {
	switch k {
	case Part:
		return "PART"
	case Disj:
		return "DISJ"
	case Comp:
		return "COMP"
	default:
		return fmt.Sprintf("PredKind(%d)", int(k))
	}
}

// Pred is a predicate on a partition expression.
type Pred struct {
	Kind   PredKind
	E      dpl.Expr
	Region string // for Part and Comp
}

func (p Pred) String() string {
	switch p.Kind {
	case Disj:
		return fmt.Sprintf("DISJ(%s)", p.E)
	default:
		return fmt.Sprintf("%s(%s, %s)", p.Kind, p.E, p.Region)
	}
}

// Subset is the constraint L ⊆ R (subregion-wise).
type Subset struct {
	L, R dpl.Expr
}

func (s Subset) String() string { return fmt.Sprintf("%s ⊆ %s", s.L, s.R) }

// Key returns a canonical string identifying the predicate up to
// structural equality. Expression keys are interned (package dpl), so a
// predicate key is two or three string concatenations.
func (p Pred) Key() string {
	switch p.Kind {
	case Part:
		return "P\x00" + dpl.Key(p.E) + "\x00" + p.Region
	case Disj:
		return "D\x00" + dpl.Key(p.E)
	default:
		return "C\x00" + dpl.Key(p.E) + "\x00" + p.Region
	}
}

// Key returns a canonical string identifying the constraint up to
// structural equality.
func (c Subset) Key() string { return dpl.Key(c.L) + "\x00⊆\x00" + dpl.Key(c.R) }

// System is a conjunction of predicates and subset constraints.
//
// The exported slices may be filled directly when building a system, but
// once an accessor (PartOf, HasPred, SubsetsInto) has been called the
// system must only be mutated through methods: accessors are backed by a
// lazily built index that methods invalidate and direct writes would not.
type System struct {
	Preds   []Pred
	Subsets []Subset

	// idx is the lazily built id-keyed view of the system and strIdx the
	// string-keyed symbol→region view. Both are immutable once built
	// (accessors copy anything callers may mutate), so clones share
	// them; any mutation drops both. The solver's trail restores the
	// pointers on undo, making backtracking-node index reuse free.
	idx    *sysIndex
	strIdx map[string]string

	// fp is the lazily computed 128-bit conjunct-multiset fingerprint
	// (see Fingerprint128); fpOK marks it valid. Trail mutations update
	// it incrementally (a wrapping sum over conjunct hashes is a
	// commutative group, so additions and removals are O(1)), making the
	// per-search-node fingerprint the solver memoizes on effectively
	// free. Wholesale mutations just clear fpOK.
	fp   [2]uint64
	fpOK bool

	// predMask/subMask are lazily built per-conjunct free-variable Bloom
	// masks (dpl.FvMask): predMask[i] covers Preds[i].E, subMask[i][0]
	// and [1] cover Subsets[i].L and .R. They let the solver's hottest
	// scans (substitution and closed-conjunct detection) skip conjuncts
	// without hashing whole expression trees. predFvs/subFvs carry the
	// corresponding interned free-variable lists and predFvIDs/subFvIDs
	// the aligned dense symbol ids (all shared, read-only), so
	// closed-conjunct and depth scans never re-hash expressions into the
	// intern table — and the solver's id-keyed paths never hash strings
	// at all. maskOK marks all of them valid; the trail mutators
	// maintain them per touched conjunct, wholesale mutations clear
	// maskOK.
	predMask  []uint64
	subMask   [][2]uint64
	predFvs   [][]string
	subFvs    [][2][]string
	predFvIDs [][]int32
	subFvIDs  [][2][]int32
	maskOK    bool
}

// sysIndex is the symbol-keyed view backing RegionOfSymID, HasPredID,
// and SubsetsIntoIdxID, built in one pass and never mutated after. The
// solver's search rebuilds this index on every backtracking node whose
// parent substituted and probes it in every rule loop, so everything in
// it is keyed by dense interned symbol id (dpl.SymID) — the build and
// the probes hash no strings at all. Disjointness/completeness
// predicates live in bitsets rather than maps: two word-slice
// allocations replace a map of every DISJ/COMP symbol. The string-keyed
// partOf view feeding the prover and graph builder (dpl.RegionOf works
// on names) is cached separately (strIdx): those consumers run once per
// closed-conjunct proof, not once per search node, and the hot rebuild
// must not pay their name hashing.
type sysIndex struct {
	partOfID    map[int32]string
	disj, comp  dpl.SymSet
	subsetsInto map[int32][]int // ascending indices into Subsets
}

// ensureIdx builds the id index if the system has been mutated (or never
// indexed). Not safe for concurrent first use on a shared system: a
// System is indexed by the one goroutine that solves over it.
func (s *System) ensureIdx() *sysIndex {
	if s.idx != nil {
		return s.idx
	}
	// Size hints avoid incremental map growth: rehash-on-grow was a
	// visible fraction of the rebuild cost. Symbol ids come from the
	// cached per-conjunct free-variable lists (a Var's list is exactly
	// its own id).
	s.ensureMasks()
	idx := &sysIndex{
		partOfID:    make(map[int32]string, len(s.Preds)),
		subsetsInto: make(map[int32][]int, len(s.Subsets)),
	}
	for i, p := range s.Preds {
		if _, ok := p.E.(dpl.Var); !ok {
			continue
		}
		id := s.predFvIDs[i][0]
		switch p.Kind {
		case Part:
			idx.partOfID[id] = p.Region
		case Disj:
			idx.disj.Add(id)
		case Comp:
			idx.comp.Add(id)
		}
	}
	for i, c := range s.Subsets {
		if _, ok := c.R.(dpl.Var); ok {
			id := s.subFvIDs[i][1][0]
			idx.subsetsInto[id] = append(idx.subsetsInto[id], i)
		}
	}
	s.idx = idx
	return idx
}

// ensureStrIdx builds the string-keyed symbol→region view on demand.
// Same first-use caveat as ensureIdx.
func (s *System) ensureStrIdx() map[string]string {
	if s.strIdx != nil {
		return s.strIdx
	}
	partOf := make(map[string]string, len(s.Preds))
	for _, p := range s.Preds {
		if v, ok := p.E.(dpl.Var); ok && p.Kind == Part {
			partOf[v.Name] = p.Region
		}
	}
	s.strIdx = partOf
	return partOf
}

// invalidate drops the indexes after a mutation.
func (s *System) invalidate() {
	s.idx = nil
	s.strIdx = nil
}

// ensureMasks builds the per-conjunct free-variable masks if missing.
func (s *System) ensureMasks() {
	if s.maskOK {
		return
	}
	s.predMask = make([]uint64, len(s.Preds))
	s.predFvs = make([][]string, len(s.Preds))
	s.predFvIDs = make([][]int32, len(s.Preds))
	for i, p := range s.Preds {
		s.predMask[i], s.predFvs[i], s.predFvIDs[i] = dpl.FvInfo(p.E)
	}
	s.subMask = make([][2]uint64, len(s.Subsets))
	s.subFvs = make([][2][]string, len(s.Subsets))
	s.subFvIDs = make([][2][]int32, len(s.Subsets))
	for i, c := range s.Subsets {
		lm, lf, li := dpl.FvInfo(c.L)
		rm, rf, ri := dpl.FvInfo(c.R)
		s.subMask[i] = [2]uint64{lm, rm}
		s.subFvs[i] = [2][]string{lf, rf}
		s.subFvIDs[i] = [2][]int32{li, ri}
	}
	s.maskOK = true
}

// PredMasks returns the per-predicate free-variable Bloom masks, aligned
// with Preds. The slice is shared with the system: callers must treat it
// as read-only and must not hold it across mutations.
func (s *System) PredMasks() []uint64 {
	s.ensureMasks()
	return s.predMask
}

// SubsetMasks returns the per-subset free-variable Bloom masks ([0]=L,
// [1]=R), aligned with Subsets, under the same sharing contract as
// PredMasks.
func (s *System) SubsetMasks() [][2]uint64 {
	s.ensureMasks()
	return s.subMask
}

// PredFvs returns the per-predicate interned free-variable lists,
// aligned with Preds, under the same sharing contract as PredMasks.
// The inner slices are interned and must never be mutated.
func (s *System) PredFvs() [][]string {
	s.ensureMasks()
	return s.predFvs
}

// SubsetFvs returns the per-subset interned free-variable lists
// ([0]=L, [1]=R), aligned with Subsets, under the same sharing contract
// as PredMasks. The inner slices are interned and must never be mutated.
func (s *System) SubsetFvs() [][2][]string {
	s.ensureMasks()
	return s.subFvs
}

// PredFvIDs returns the per-predicate interned free-variable symbol-id
// lists (dpl.SymID), aligned with Preds and with PredFvs entry by
// entry, under the same sharing contract as PredMasks.
func (s *System) PredFvIDs() [][]int32 {
	s.ensureMasks()
	return s.predFvIDs
}

// SubsetFvIDs returns the per-subset interned free-variable symbol-id
// lists ([0]=L, [1]=R), aligned with Subsets and with SubsetFvs entry
// by entry, under the same sharing contract as PredMasks.
func (s *System) SubsetFvIDs() [][2][]int32 {
	s.ensureMasks()
	return s.subFvIDs
}

// Clone returns a deep-enough copy (expressions are immutable). The
// index, if built, is shared: it is immutable and both systems currently
// have identical content; whichever mutates first drops its own pointer.
// Masks are copied (the trail mutates them in place).
func (s *System) Clone() *System {
	out := &System{
		Preds:   append([]Pred(nil), s.Preds...),
		Subsets: append([]Subset(nil), s.Subsets...),
		idx:     s.idx,
		strIdx:  s.strIdx,
		fp:      s.fp,
		fpOK:    s.fpOK,
		maskOK:  s.maskOK,
	}
	if s.maskOK {
		out.predMask = append([]uint64(nil), s.predMask...)
		out.subMask = append([][2]uint64(nil), s.subMask...)
		out.predFvs = append([][]string(nil), s.predFvs...)
		out.subFvs = append([][2][]string(nil), s.subFvs...)
		out.predFvIDs = append([][]int32(nil), s.predFvIDs...)
		out.subFvIDs = append([][2][]int32(nil), s.subFvIDs...)
	}
	return out
}

// And appends the conjuncts of other.
func (s *System) And(other *System) {
	s.invalidate()
	s.fpOK = false
	s.maskOK = false
	s.Preds = append(s.Preds, other.Preds...)
	s.Subsets = append(s.Subsets, other.Subsets...)
}

// AddPred appends a predicate, skipping exact duplicates.
func (s *System) AddPred(p Pred) {
	for _, q := range s.Preds {
		if q.Kind == p.Kind && q.Region == p.Region && dpl.Equal(q.E, p.E) {
			return
		}
	}
	s.invalidate()
	if s.fpOK {
		s.fpAdd(p.hash128())
	}
	if s.maskOK {
		m, f, ids := dpl.FvInfo(p.E)
		s.predMask = append(s.predMask, m)
		s.predFvs = append(s.predFvs, f)
		s.predFvIDs = append(s.predFvIDs, ids)
	}
	s.Preds = append(s.Preds, p)
}

// AddSubset appends a subset constraint, skipping duplicates and
// tautologies.
func (s *System) AddSubset(c Subset) {
	if dpl.Equal(c.L, c.R) {
		return
	}
	for _, q := range s.Subsets {
		if dpl.Equal(q.L, c.L) && dpl.Equal(q.R, c.R) {
			return
		}
	}
	s.invalidate()
	if s.fpOK {
		s.fpAdd(c.hash128())
	}
	if s.maskOK {
		lm, lf, li := dpl.FvInfo(c.L)
		rm, rf, ri := dpl.FvInfo(c.R)
		s.subMask = append(s.subMask, [2]uint64{lm, rm})
		s.subFvs = append(s.subFvs, [2][]string{lf, rf})
		s.subFvIDs = append(s.subFvIDs, [2][]int32{li, ri})
	}
	s.Subsets = append(s.Subsets, c)
}

// Fingerprint returns a canonical, order-independent identifier of the
// system's conjunct set: two systems with the same conjuncts (in any
// order) share a fingerprint. Conjunct keys are built from interned
// expression keys, so the cost is one sort plus concatenation. This is
// the exact (collision-free) form; the solver's memo tables use the
// cheaper Fingerprint128.
func (s *System) Fingerprint() string {
	parts := make([]string, 0, len(s.Preds)+len(s.Subsets))
	for _, p := range s.Preds {
		parts = append(parts, p.Key())
	}
	for _, c := range s.Subsets {
		parts = append(parts, c.Key())
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// mix64 is the splitmix64 finalizer, used to whiten conjunct hashes so
// the fingerprint's wrapping sum sees near-random contributions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash128 combines the interned expression hashes with the predicate
// kind and region into one whitened conjunct contribution.
func (p Pred) hash128() [2]uint64 {
	eh := dpl.Hash128(p.E)
	rh := dpl.HashString128(p.Region)
	k := uint64(p.Kind) + 1
	return [2]uint64{
		mix64(eh[0] ^ rh[0]*0x9e3779b97f4a7c15 ^ k*0xa24baed4963ee407),
		mix64(eh[1] ^ rh[1]*0xc2b2ae3d27d4eb4f ^ k*0x165667b19e3779f9),
	}
}

// hash128 combines the side hashes asymmetrically (L ⊆ R and R ⊆ L must
// differ) into one whitened conjunct contribution.
func (c Subset) hash128() [2]uint64 {
	lh, rh := dpl.Hash128(c.L), dpl.Hash128(c.R)
	return [2]uint64{
		mix64(lh[0]*0x9e3779b97f4a7c15 ^ rh[0] ^ 0xd6e8feb86659fd93),
		mix64(lh[1]*0xc2b2ae3d27d4eb4f ^ rh[1] ^ 0xff51afd7ed558ccd),
	}
}

// fpAdd and fpSub update the incremental fingerprint; the per-limb
// wrapping sum makes conjunct addition and removal commutative inverses.
func (s *System) fpAdd(h [2]uint64) { s.fp[0] += h[0]; s.fp[1] += h[1] }
func (s *System) fpSub(h [2]uint64) { s.fp[0] -= h[0]; s.fp[1] -= h[1] }

// Fingerprint128 returns a 128-bit order-independent fingerprint of the
// system's conjunct multiset: the wrapping sum of whitened per-conjunct
// hashes. Computed lazily in one pass, then maintained incrementally by
// the trail mutators, so the solver's per-node memo lookups are O(1).
// Two systems with the same conjuncts (in any order) share the value;
// distinct conjunct multisets collide with probability ~2^-128, which
// the solver's memo tables accept.
func (s *System) Fingerprint128() [2]uint64 {
	if !s.fpOK {
		var f [2]uint64
		for _, p := range s.Preds {
			h := p.hash128()
			f[0] += h[0]
			f[1] += h[1]
		}
		for _, c := range s.Subsets {
			h := c.hash128()
			f[0] += h[0]
			f[1] += h[1]
		}
		s.fp, s.fpOK = f, true
	}
	return s.fp
}

// OrderedFingerprint128 returns a 128-bit fingerprint of the conjunct
// *sequence*: unlike Fingerprint128 it distinguishes orderings of the
// same multiset. The solver's unification-round memo needs that
// sensitivity because Algorithm 3's greedy winner depends on graph
// construction order, which follows conjunct order. Computed in one
// pass over the cached per-conjunct hashes; not cached on the system
// (callers memoize by pointer where it matters).
func (s *System) OrderedFingerprint128() [2]uint64 {
	const p1, p2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	f := [2]uint64{uint64(len(s.Preds)) + 1, uint64(len(s.Subsets)) + 1}
	for _, p := range s.Preds {
		h := p.hash128()
		f[0] = (f[0] ^ h[0]) * p1
		f[1] = (f[1] ^ h[1]) * p2
	}
	for _, c := range s.Subsets {
		h := c.hash128()
		f[0] = (f[0] ^ h[0]) * p1
		f[1] = (f[1] ^ h[1]) * p2
	}
	return f
}

// Subst replaces a partition symbol with an expression throughout the
// system and drops resulting tautologies and duplicates. Deduplication
// matters for soundness: the final entailment check removes a conjunct
// before proving it, and a surviving identical copy would let any
// conjunct prove itself. Only conjuncts that mention the substituted
// symbol can newly collide, so only those are checked (against the
// whole list).
func (s *System) Subst(name string, e dpl.Expr) {
	s.invalidate()
	s.fpOK = false
	s.maskOK = false
	mentions := func(x dpl.Expr) bool { return dpl.Mentions(x, name) }

	predChanged := make([]bool, len(s.Preds))
	for i := range s.Preds {
		if mentions(s.Preds[i].E) {
			s.Preds[i].E = dpl.Subst(s.Preds[i].E, name, e)
			predChanged[i] = true
		}
	}
	preds := s.Preds[:0]
	kept := 0
	for i, p := range s.Preds {
		dup := false
		for j := 0; j < kept; j++ {
			q := preds[j]
			if (predChanged[i] || predChanged[j]) && q.Kind == p.Kind && q.Region == p.Region && dpl.Equal(q.E, p.E) {
				dup = true
				break
			}
		}
		if !dup {
			preds = append(preds, p)
			predChanged[kept] = predChanged[i]
			kept++
		}
	}
	s.Preds = preds

	subChanged := make([]bool, len(s.Subsets))
	for i := range s.Subsets {
		if mentions(s.Subsets[i].L) || mentions(s.Subsets[i].R) {
			s.Subsets[i].L = dpl.Subst(s.Subsets[i].L, name, e)
			s.Subsets[i].R = dpl.Subst(s.Subsets[i].R, name, e)
			subChanged[i] = true
		}
	}
	out := s.Subsets[:0]
	kept = 0
	for i, c := range s.Subsets {
		if dpl.Equal(c.L, c.R) {
			continue
		}
		dup := false
		for j := 0; j < kept; j++ {
			q := out[j]
			if (subChanged[i] || subChanged[j]) && dpl.Equal(q.L, c.L) && dpl.Equal(q.R, c.R) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
			subChanged[kept] = subChanged[i]
			kept++
		}
	}
	s.Subsets = out
}

// RenamedSyms returns a copy of the system with a simultaneous
// symbol-to-symbol renaming applied, dropping resulting tautologies and
// duplicates exactly as repeated Subst calls would (simultaneous and
// sequential application agree whenever no renamed-to symbol is itself
// renamed — callers must ensure that). One pass over the system replaces
// one full Subst pass per renamed symbol.
func (s *System) RenamedSyms(renames map[string]string) *System {
	out := &System{
		Preds:   make([]Pred, 0, len(s.Preds)),
		Subsets: make([]Subset, 0, len(s.Subsets)),
	}
	predChanged := make([]bool, 0, len(s.Preds))
	kept := 0
	for _, p := range s.Preds {
		e := dpl.RenameVars(p.E, renames)
		changed := !dpl.Equal(e, p.E)
		p.E = e
		dup := false
		for j := 0; j < kept; j++ {
			q := out.Preds[j]
			if (changed || predChanged[j]) && q.Kind == p.Kind && q.Region == p.Region && dpl.Equal(q.E, p.E) {
				dup = true
				break
			}
		}
		if !dup {
			out.Preds = append(out.Preds, p)
			predChanged = append(predChanged, changed)
			kept++
		}
	}
	subChanged := make([]bool, 0, len(s.Subsets))
	kept = 0
	for _, c := range s.Subsets {
		l := dpl.RenameVars(c.L, renames)
		r := dpl.RenameVars(c.R, renames)
		changed := !dpl.Equal(l, c.L) || !dpl.Equal(r, c.R)
		c.L, c.R = l, r
		if dpl.Equal(c.L, c.R) {
			continue
		}
		dup := false
		for j := 0; j < kept; j++ {
			q := out.Subsets[j]
			if (changed || subChanged[j]) && dpl.Equal(q.L, c.L) && dpl.Equal(q.R, c.R) {
				dup = true
				break
			}
		}
		if !dup {
			out.Subsets = append(out.Subsets, c)
			subChanged = append(subChanged, changed)
			kept++
		}
	}
	return out
}

// Symbols returns all partition symbols appearing in the system, sorted.
// It concatenates the interned per-expression free-variable lists and
// sorts once — cheaper than map-based dedup for the call frequency this
// sees (every graph build and solvability check walks the symbols).
func (s *System) Symbols() []string {
	n := 0
	for _, p := range s.Preds {
		n += len(dpl.FreeVars(p.E))
	}
	for _, c := range s.Subsets {
		n += len(dpl.FreeVars(c.L)) + len(dpl.FreeVars(c.R))
	}
	all := make([]string, 0, n)
	for _, p := range s.Preds {
		all = append(all, dpl.FreeVars(p.E)...)
	}
	for _, c := range s.Subsets {
		all = append(all, dpl.FreeVars(c.L)...)
		all = append(all, dpl.FreeVars(c.R)...)
	}
	sort.Strings(all)
	out := all[:0]
	for _, v := range all {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// PartOf returns the region of each symbol P that has a PART(P, R)
// predicate; the map feeds dpl.RegionOf. The returned map is a copy the
// caller may extend.
func (s *System) PartOf() map[string]string {
	shared := s.ensureStrIdx()
	out := make(map[string]string, len(shared))
	for k, v := range shared {
		out[k] = v
	}
	return out
}

// partOfShared returns the cached symbol→region map itself, avoiding
// PartOf's defensive copy. Callers (same package only) must treat it as
// read-only: the map is shared with the cache and with clones.
func (s *System) partOfShared() map[string]string {
	return s.ensureStrIdx()
}

// RegionOfSym returns the region of a symbol with a PART predicate
// (index lookup, no map copy).
func (s *System) RegionOfSym(symbol string) (string, bool) {
	r, ok := s.ensureStrIdx()[symbol]
	return r, ok
}

// RegionOfSymID is RegionOfSym keyed by dense interned symbol id — the
// solver's search resolves regions without hashing names.
func (s *System) RegionOfSymID(id int32) (string, bool) {
	r, ok := s.ensureIdx().partOfID[id]
	return r, ok
}

// HasPred reports whether the system contains a predicate of the given
// kind on a symbol (index lookup).
func (s *System) HasPred(kind PredKind, symbol string) bool {
	return s.HasPredID(kind, dpl.SymID(symbol))
}

// HasPredID is HasPred keyed by dense interned symbol id.
func (s *System) HasPredID(kind PredKind, id int32) bool {
	idx := s.ensureIdx()
	switch kind {
	case Disj:
		return idx.disj.Has(id)
	case Comp:
		return idx.comp.Has(id)
	default:
		_, ok := idx.partOfID[id]
		return ok
	}
}

// SubsetsInto returns the subset constraints whose right-hand side is
// exactly the symbol, in system order (index lookup).
// SubsetsIntoIdx returns the ascending indices into Subsets whose
// right-hand side is exactly the symbol. The slice is shared with the
// index: callers must treat it as read-only and must not hold it across
// mutations.
func (s *System) SubsetsIntoIdx(symbol string) []int {
	return s.SubsetsIntoIdxID(dpl.SymID(symbol))
}

// SubsetsIntoIdxID is SubsetsIntoIdx keyed by dense interned symbol id,
// under the same sharing contract.
func (s *System) SubsetsIntoIdxID(id int32) []int {
	return s.ensureIdx().subsetsInto[id]
}

func (s *System) SubsetsInto(symbol string) []Subset {
	ids := s.SubsetsIntoIdx(symbol)
	if len(ids) == 0 {
		return nil
	}
	out := make([]Subset, len(ids))
	for i, j := range ids {
		out[i] = s.Subsets[j]
	}
	return out
}

func (s *System) String() string {
	parts := make([]string, 0, len(s.Preds)+len(s.Subsets))
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	for _, c := range s.Subsets {
		parts = append(parts, c.String())
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// Conjuncts returns every conjunct as a printable unit (predicates first,
// then subsets), used by the final entailment check.
type Conjunct struct {
	Pred    *Pred
	Subset  *Subset
	Summary string
}

// Conjuncts lists the system's conjuncts.
func (s *System) Conjuncts() []Conjunct {
	out := make([]Conjunct, 0, len(s.Preds)+len(s.Subsets))
	for i := range s.Preds {
		p := s.Preds[i]
		out = append(out, Conjunct{Pred: &p, Summary: p.String()})
	}
	for i := range s.Subsets {
		c := s.Subsets[i]
		out = append(out, Conjunct{Subset: &c, Summary: c.String()})
	}
	return out
}
