// Package solver implements the constraint solver of §3: Algorithm 2's
// resolution procedure (synthesizing a DPL expression for every partition
// symbol, guided by the preimage, closed-union, and depth-ordered equal
// rules, with backtracking and a final lemma-based consistency check) and
// Algorithm 3's unification of isomorphic constraint subgraphs across
// loops, including unification against externally provided partitions
// (§3.3).
//
// The solver's data-plane is built for speed without changing output:
// expressions are hash-consed (package dpl), the working system is
// mutated in place under an undo trail so a backtracking node costs
// O(delta) instead of a full copy, and solvability verdicts are memoized
// by canonical system fingerprint. Algorithm 3 checks each round's
// candidates in one greedy loop, committing the first that passes.
package solver

import (
	"autopart/internal/constraint"
	"autopart/internal/dpl"
	"autopart/internal/lang"
)

// Solution is the output of the solver: one DPL statement per partition
// symbol (aliases included), plus the bookkeeping the rewriter needs.
type Solution struct {
	// Program is the synthesized DPL program after CSE, in dependency
	// order; external symbols are free (provided at evaluation time).
	Program dpl.Program
	// Canon maps every original partition symbol to its canonical symbol
	// after unification (identity for non-unified symbols). Canonical
	// symbols are either defined by Program or external.
	Canon map[string]string
	// System is the final combined obligation system (after unification
	// and substitution of the solution).
	System *constraint.System
	// ExternalSyms are the fixed symbols (§3.3) the program may
	// reference but does not define.
	ExternalSyms []string
	// Stats reports the solver's cache and search activity.
	Stats SolveStats
}

// Resolve returns the canonical symbol for an original symbol. Canon
// chains are followed with a hop bound so a malformed cyclic map
// (a→b→a) terminates deterministically instead of looping forever.
func (s *Solution) Resolve(sym string) string {
	for hops := 0; hops <= len(s.Canon); hops++ {
		next, ok := s.Canon[sym]
		if !ok || next == sym {
			return sym
		}
		sym = next
	}
	return sym
}

// SolveStats counts cache and search activity across one Solver's
// lifetime (every solvable check and solve run).
type SolveStats struct {
	// MemoHits/MemoMisses count solvability-verdict lookups by system
	// fingerprint (Algorithm 3's candidate checks).
	MemoHits, MemoMisses int
	// ClosedHits/ClosedMisses count closed-conjunct verdict lookups
	// (Algorithm 2's per-node early pruning).
	ClosedHits, ClosedMisses int
	// NodeHits counts search nodes cut by the refuted-subtree memo.
	NodeHits int
	// Nodes counts backtracking search nodes visited.
	Nodes int
	// UnifyNS is wall time in nanoseconds spent inside UnifyAndSolve
	// (Algorithm 3: graph builds, matching, and candidate checks).
	UnifyNS int64
	// GraphBuilds and GraphExtends count accumulated-graph cache
	// activity: full BuildGraph constructions versus incremental
	// Extended growths. A healthy run extends far more than it builds.
	GraphBuilds, GraphExtends int
	// UnifyRoundHits/UnifyRoundMisses count unification-round memo
	// lookups: a hit replays a previously committed rename set (or a
	// previously established "nothing left to unify") without building
	// graphs, matching subgraphs, or running candidate checks.
	UnifyRoundHits, UnifyRoundMisses int
}

// extCandidate is a closed expression appearing in the external
// assumptions that can stand in for a fresh partition: e.g. the Circuit
// hint DISJ(pn_private ∪ pn_shared) ∧ COMP(pn_private ∪ pn_shared, rn)
// makes pn_private ∪ pn_shared a candidate for any symbol that must be a
// disjoint and/or complete partition of rn.
type extCandidate struct {
	expr   dpl.Expr
	region string
	disj   bool
	comp   bool
}

// Solver holds the fixed context of one solving run. A Solver is used
// by one goroutine; only its memo cache may be shared with other
// solvers.
type Solver struct {
	external     *constraint.System
	externalSyms map[string]bool
	// extMask is the union of the external symbols' Bloom bits
	// (dpl.SymBit). An expression whose free-variable mask has bits
	// outside extMask certainly contains a non-external symbol, so the
	// hot closedness scans skip it without touching the intern table.
	extMask uint64
	// externalIDs is the same membership as externalSyms over dense
	// interned symbol ids (dpl.SymID): the search's closedness and
	// externality tests hit this bitset instead of hashing strings.
	externalIDs dpl.SymSet
	extCands    []extCandidate
	// budget caps backtracking work per Solve call; solving is reported
	// as failed if exceeded (never hit by realistic systems). Each
	// search carries its own countdown, so an exhausted search never
	// dents the cap of later ones.
	budget int

	// cache stores the three verdict memos — solvability (Algorithm 3's
	// candidate checks), closed-conjunct proofs, and refuted search
	// subtrees — keyed by (ctx, system fingerprint). It is either a
	// private per-compile cache (New) or a cross-compile cache shared by
	// a compile service (NewWithCache); either way the verdicts are
	// deterministic functions of the key, so sharing is sound.
	cache *MemoCache
	// ctx is this solver's half of every memo key: a fingerprint of the
	// external assumption system, symbol set, and declared-partial
	// function set (see contextFingerprint).
	ctx [2]uint64
	// ctxSyms retains the external symbol list so SetPartialFns can
	// recompute ctx.
	ctxSyms []string
	// partialFns names the program's declared-partial index functions;
	// provers built by the search must refuse totality lemmas on them.
	partialFns map[string]bool

	stats SolveStats
}

// New creates a solver with external assumptions (may be nil) and a
// private memo cache.
func New(external *constraint.System, externalSyms []string) *Solver {
	return NewWithCache(external, externalSyms, nil)
}

// NewWithCache creates a solver whose verdict memos live in the given
// cross-compile cache; a nil cache selects a private one sized to never
// evict within a compile (the classic per-compile behavior).
func NewWithCache(external *constraint.System, externalSyms []string, cache *MemoCache) *Solver {
	if cache == nil {
		cache = NewMemoCache(privateMemoCap)
	}
	s := &Solver{
		external:     external,
		externalSyms: map[string]bool{},
		budget:       200000,
		cache:        cache,
	}
	if external == nil {
		s.external = &constraint.System{}
	}
	s.ctxSyms = append([]string(nil), externalSyms...)
	s.ctx = contextFingerprint(s.external, externalSyms, nil)
	for _, sym := range externalSyms {
		s.externalSyms[sym] = true
		s.extMask |= dpl.SymBit(sym)
		s.externalIDs.Add(dpl.SymID(sym))
	}
	s.collectExternalCandidates()
	return s
}

// SetPartialFns records the program's declared-partial index functions.
// It must be called before solving: provers refuse totality-dependent
// lemmas (L7) on these functions, so the set changes verdicts. The memo
// context fingerprint is recomputed to include it (a shared cross-
// compile cache must not serve a total-world verdict to a program whose
// functions are partial), and the external candidate proofs are redone
// under the new set.
func (s *Solver) SetPartialFns(fns map[string]bool) {
	s.partialFns = fns
	s.ctx = contextFingerprint(s.external, s.ctxSyms, fns)
	s.extCands = nil
	s.collectExternalCandidates()
}

// Stats returns a snapshot of the solver's cache and search counters.
func (s *Solver) Stats() SolveStats { return s.stats }

// collectExternalCandidates gathers the compound expressions of external
// DISJ/COMP assertions as assignment candidates (reusing user partitions
// is the paper's fewest-partitions heuristic applied to §3.3 hints).
func (s *Solver) collectExternalCandidates() {
	prover := constraint.NewProver(s.external).SetPartialFns(s.partialFns)
	partOf := s.external.PartOf()
	seen := map[string]*extCandidate{}
	var order []string
	for _, p := range s.external.Preds {
		if p.Kind == constraint.Part {
			continue
		}
		if _, isVar := p.E.(dpl.Var); isVar {
			continue // bare symbols are reachable through unification
		}
		region, ok := dpl.RegionOf(p.E, partOf)
		if !ok {
			continue
		}
		key := dpl.Key(p.E)
		c, dup := seen[key]
		if !dup {
			c = &extCandidate{
				expr:   p.E,
				region: region,
				disj:   prover.ProveDisj(p.E),
				comp:   prover.ProveComp(p.E, region),
			}
			seen[key] = c
			order = append(order, key)
		}
	}
	for _, key := range order {
		s.extCands = append(s.extCands, *seen[key])
	}
	// External symbols themselves are candidates too (PENNANT's Hint2
	// provides rs_p/rz_p to be reused directly as iteration partitions).
	// Compound expressions stay ahead so e.g. the complete Circuit union
	// wins over its incomplete halves.
	for _, p := range s.external.Preds {
		if p.Kind != constraint.Part {
			continue
		}
		if _, ok := p.E.(dpl.Var); !ok {
			continue
		}
		key := dpl.Key(p.E)
		if _, dup := seen[key]; dup {
			continue
		}
		c := &extCandidate{
			expr:   p.E,
			region: p.Region,
			disj:   prover.ProveDisj(p.E),
			comp:   prover.ProveComp(p.E, p.Region),
		}
		if !c.disj && !c.comp {
			continue // nothing an assignment could gain from it
		}
		seen[key] = c
		s.extCands = append(s.extCands, *c)
	}
}

// closedIDs reports whether an expression contains only external
// symbols (the solver's notion of "closed": everything in it is already
// computable), given its free-variable Bloom mask and interned id list
// (System.PredFvIDs/SubsetFvIDs). Mask bits outside extMask prove a
// non-external free symbol without any per-symbol work; the exact check
// is bitset probes on dense ids instead of string-map lookups.
func (s *Solver) closedIDs(mask uint64, ids []int32) bool {
	if mask&^s.extMask != 0 {
		return false
	}
	for _, id := range ids {
		if !s.externalIDs.Has(id) {
			return false
		}
	}
	return true
}

// equation is one P = E assignment of the partial solution.
type equation struct {
	name string
	expr dpl.Expr
}

// symRef is an unresolved symbol carried through the search as both its
// name (for equations and candidate expressions) and its interned id
// (for every membership and index lookup on the hot path).
type symRef struct {
	name string
	id   int32
}

// search is one backtracking run of Algorithm 2 over one working system.
// It owns its budget countdown and undo trail, so each Algorithm 3
// check and the final Solve run apart; only the memo lookups go through
// the Solver's cache.
type search struct {
	s     *Solver
	c     *constraint.System
	trail *constraint.Trail
	// budget is the remaining node allowance for this search.
	budget int
	// exhausted is set once the budget hits zero: failures after that
	// point may be budget-caused, so they are never recorded as
	// refutations in the node memo.
	exhausted bool
}

// newSearch prepares a search over a private clone of sys.
func (s *Solver) newSearch(sys *constraint.System, budget int) *search {
	work := sys.Clone()
	return &search{s: s, c: work, trail: constraint.NewTrail(work), budget: budget}
}

// Solve resolves a single constraint system: it synthesizes a DPL
// expression for every non-external partition symbol such that the
// strengthened system passes the consistency check. The returned program
// is in resolution order, before CSE.
func (s *Solver) Solve(sys *constraint.System) (dpl.Program, error) {
	// The external assumptions participate as hypotheses but their
	// symbols are never assigned.
	sr := s.newSearch(sys, s.budget)
	eqs, ok := sr.solve(nil, s.unresolved(sr.c))
	if !ok {
		return dpl.Program{}, lang.Errorf("S001", lang.Span{}, "solver: no solution for constraint system:\n%s", sys)
	}
	var prog dpl.Program
	for _, eq := range eqs {
		prog.Append(eq.name, eq.expr)
	}
	return prog, nil
}

// unresolved lists the symbols of c that still need expressions, in
// Symbols' sorted order (which fixes the search's candidate order).
func (s *Solver) unresolved(c *constraint.System) []symRef {
	var out []symRef
	for _, sym := range c.Symbols() {
		if !s.externalSyms[sym] {
			out = append(out, symRef{name: sym, id: dpl.SymID(sym)})
		}
	}
	return out
}

// depths computes depth(P) per Algorithm 2: the length of the longest
// chain of subset constraints E1 ⊆ ... ⊆ Ek ⊆ P, where closed
// expressions have depth 0. Cycles (possible after unification) are
// cut by bounding iteration.
func (sr *search) depths(syms []symRef) map[int32]int {
	c := sr.c
	depth := make(map[int32]int, len(syms))
	for _, sym := range syms {
		depth[sym.id] = 0
	}
	idsDepth := func(ids []int32) int {
		d := 0
		for _, v := range ids {
			if dv, ok := depth[v]; ok && dv > d {
				d = dv
			}
		}
		return d
	}
	// A left-hand side whose mask shares no bits with the unresolved
	// symbols certainly has depth 0 — skip its free-variable walk.
	var symsMask uint64
	for _, sym := range syms {
		symsMask |= dpl.SymBit(sym.name)
	}
	subMasks := c.SubsetMasks()
	subFvIDs := c.SubsetFvIDs()
	for iter := 0; iter <= len(syms); iter++ {
		changed := false
		for i, sub := range c.Subsets {
			if _, ok := sub.R.(dpl.Var); !ok {
				continue
			}
			// A Var's interned fv list is exactly its own id.
			to := subFvIDs[i][1][0]
			if sr.s.externalIDs.Has(to) {
				continue
			}
			d := 1
			if subMasks[i][0]&symsMask != 0 {
				d = idsDepth(subFvIDs[i][0]) + 1
			}
			if d > depth[to] {
				depth[to] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return depth
}

// regionOf resolves a symbol's region from the working system's PART
// predicates, falling back to the external assumptions.
func (sr *search) regionOf(sym symRef) (string, bool) {
	if r, ok := sr.c.RegionOfSymID(sym.id); ok {
		return r, true
	}
	return sr.s.external.RegionOfSymID(sym.id)
}

// solve is Algorithm 2: pick a remaining symbol, attempt an equation,
// recurse; backtrack on failure. syms is the current unresolved symbol
// list (every assignment is a closed expression, so the list simply
// loses the assigned name at each step). The working system is mutated
// in place; every failed attempt is rewound through the trail, so on
// failure the system is exactly as the caller left it.
func (sr *search) solve(sol []equation, syms []symRef) ([]equation, bool) {
	if sr.budget <= 0 {
		sr.exhausted = true
		return nil, false
	}
	sr.budget--
	c, s := sr.c, sr.s
	s.stats.Nodes++

	// Early pruning: a fully-closed conjunct can only be discharged by
	// the lemmas and the current hypotheses; if it is already
	// unprovable, no further assignment will save this branch. Verified
	// conjuncts are consumed so each is proven once per path — this is
	// what keeps backtracking tractable on many-loop programs.
	entry := sr.trail.Mark()
	if !sr.consumeClosedConjuncts() {
		sr.trail.UndoTo(entry)
		return nil, false
	}

	// Refuted-subtree memo: if an earlier (completed) exploration of this
	// exact conjunct set failed — in this compile or, with a shared
	// cache, any previous one — every rule candidate below fails again.
	fp := c.Fingerprint128()
	refuted, _ := s.cache.lookup(memoKey{kind: memoNode, ctx: s.ctx, fp: fp})
	if refuted {
		s.stats.NodeHits++
		sr.trail.UndoTo(entry)
		return nil, false
	}

	try := func(sym symRef, expr dpl.Expr) ([]equation, bool) {
		m := sr.trail.Mark()
		c.SubstT(sr.trail, sym.name, expr)
		rest := make([]symRef, 0, len(syms)-1)
		for _, v := range syms {
			if v.id != sym.id {
				rest = append(rest, v)
			}
		}
		next, ok := sr.solve(append(sol, equation{sym.name, expr}), rest)
		if !ok {
			sr.trail.UndoTo(m)
		}
		return next, ok
	}

	// Rule 1 (lines 11–15): image(P, f, R) ⊆ E with closed E resolves P
	// to a preimage (L14). Generalized IMAGE is excluded (L14 invalid).
	subMasks := c.SubsetMasks()
	subFvIDs := c.SubsetFvIDs()
	for i, sub := range c.Subsets {
		imgExpr, ok := sub.L.(dpl.ImageExpr)
		if !ok || !s.closedIDs(subMasks[i][1], subFvIDs[i][1]) {
			continue
		}
		p, ok := imgExpr.Of.(dpl.Var)
		if !ok {
			continue
		}
		// image(P, f, R)'s interned fv list is exactly [id(P)].
		pid := subFvIDs[i][0][0]
		if s.externalIDs.Has(pid) {
			continue
		}
		srcRegion, ok := c.RegionOfSymID(pid)
		if !ok {
			continue
		}
		cand := dpl.PreimageExpr{Region: srcRegion, Func: imgExpr.Func, Of: sub.R}
		if next, ok := try(symRef{name: p.Name, id: pid}, cand); ok {
			return next, true
		}
	}

	// Rule 2 (lines 16–18): a symbol whose incoming subset constraints
	// all have closed left-hand sides resolves to their union (L13).
	for _, sym := range syms {
		into := c.SubsetsIntoIdxID(sym.id)
		if len(into) == 0 {
			continue
		}
		allClosed := true
		lowers := make([]dpl.Expr, 0, len(into))
		// Dedup by interned expression id: equal expressions share an id
		// and distinct ones never do, so this matches the old
		// canonical-key dedup exactly.
		seen := map[uint64]bool{}
		for _, j := range into {
			l := c.Subsets[j].L
			if !s.closedIDs(subMasks[j][0], subFvIDs[j][0]) {
				allClosed = false
				break
			}
			if id := dpl.ID(l); !seen[id] {
				seen[id] = true
				lowers = append(lowers, l)
			}
		}
		if !allClosed {
			continue
		}
		if next, ok := try(sym, dpl.UnionAll(lowers)); ok {
			return next, true
		}
	}

	// Rule 3 (lines 20–26): assign equal partitions, deepest symbols
	// first. All DISJ symbols (at every depth) come before merely-COMP
	// ones: disjointness flows right-to-left through subset constraints
	// (insight 3), so disjoint reduction targets must resolve before the
	// iteration partitions whose preimage unions depend on them.
	// (Depths are computed only here: nodes resolved by rule 1 or 2
	// never pay for them.)
	depth := sr.depths(syms)
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for d := maxDepth; d >= 0; d-- {
		for _, sym := range syms {
			if depth[sym.id] != d || !c.HasPredID(constraint.Disj, sym.id) {
				continue
			}
			region, ok := sr.regionOf(sym)
			if !ok {
				continue
			}
			// External compound expressions with the required properties
			// come first: reusing user partitions beats creating fresh
			// ones.
			for _, cand := range s.extCands {
				if cand.region != region || !cand.disj {
					continue
				}
				if c.HasPredID(constraint.Comp, sym.id) && !cand.comp {
					continue
				}
				if next, ok := try(sym, cand.expr); ok {
					return next, true
				}
			}
			if next, ok := try(sym, dpl.EqualExpr{Region: region}); ok {
				return next, true
			}
		}
	}
	for d := maxDepth; d >= 0; d-- {
		for _, sym := range syms {
			if depth[sym.id] != d || !c.HasPredID(constraint.Comp, sym.id) || c.HasPredID(constraint.Disj, sym.id) {
				continue
			}
			region, ok := sr.regionOf(sym)
			if !ok {
				continue
			}
			for _, cand := range s.extCands {
				if cand.region != region || !cand.comp {
					continue
				}
				if next, ok := try(sym, cand.expr); ok {
					return next, true
				}
			}
			if next, ok := try(sym, dpl.EqualExpr{Region: region}); ok {
				return next, true
			}
		}
	}

	// No rule applies: the system is resolved iff no symbols remain and
	// every conjunct is entailed (lines 27–29).
	if len(syms) > 0 {
		sr.noteRefuted(fp)
		sr.trail.UndoTo(entry)
		return nil, false
	}
	if ok, _ := constraint.CheckResolvedWith(c, s.external, s.partialFns); !ok {
		sr.noteRefuted(fp)
		sr.trail.UndoTo(entry)
		return nil, false
	}
	return sol, true
}

// noteRefuted records a completed refutation of the current node's
// conjunct set. Skipped once the search has run out of budget: from then
// on failures may be budget-caused rather than genuine, and caching them
// could wrongly refute the same system under a fresh budget.
func (sr *search) noteRefuted(fp [2]uint64) {
	if sr.exhausted {
		return
	}
	sr.s.cache.store(memoKey{kind: memoNode, ctx: sr.s.ctx, fp: fp}, true)
}

// consumeClosedConjuncts verifies every conjunct without free
// non-external symbols against the current hypotheses, removing the
// verified ones from the working system (they never change again, so
// proving each once per path suffices). It reports false when any closed
// conjunct is unprovable. Verdicts are memoized by system fingerprint:
// the proof obligations are a deterministic function of the system and
// the fixed external assumptions, and Algorithm 3's candidate checks
// revisit the same systems many times — a refuted closed-conjunct set
// fails on fingerprint lookup alone.
func (sr *search) consumeClosedConjuncts() bool {
	c, s := sr.c, sr.s
	var closedSubIdx, closedPredIdx []int
	subMasks := c.SubsetMasks()
	subFvIDs := c.SubsetFvIDs()
	for i := range c.Subsets {
		if s.closedIDs(subMasks[i][0], subFvIDs[i][0]) && s.closedIDs(subMasks[i][1], subFvIDs[i][1]) {
			closedSubIdx = append(closedSubIdx, i)
		}
	}
	predMasks := c.PredMasks()
	predFvIDs := c.PredFvIDs()
	for i, p := range c.Preds {
		if _, isVar := p.E.(dpl.Var); isVar {
			// Predicates on bare external symbols are assumptions;
			// PART-on-Var stays as region-typing info.
			continue
		}
		if p.Kind != constraint.Part && s.closedIDs(predMasks[i], predFvIDs[i]) {
			closedPredIdx = append(closedPredIdx, i)
		}
	}
	if len(closedSubIdx) == 0 && len(closedPredIdx) == 0 {
		return true
	}

	fp := c.Fingerprint128()
	key := memoKey{kind: memoClosed, ctx: s.ctx, fp: fp}
	verdict, cached := s.cache.lookup(key)
	if cached {
		s.stats.ClosedHits++
	} else {
		s.stats.ClosedMisses++
		verdict = sr.proveClosedConjuncts(closedPredIdx, closedSubIdx)
		s.cache.store(key, verdict)
	}
	if !verdict {
		return false
	}
	// All verified: consume them (trail-recorded, rewound on backtrack).
	c.RemovePredsT(sr.trail, closedPredIdx)
	c.RemoveSubsetsT(sr.trail, closedSubIdx)
	return true
}

// proveClosedConjuncts runs the actual lemma proofs behind
// consumeClosedConjuncts' memo.
func (sr *search) proveClosedConjuncts(closedPredIdx, closedSubIdx []int) bool {
	c, s := sr.c, sr.s
	// One prover over "working system plus external assumptions", built
	// without materializing the conjunction. Goal predicates must not
	// serve as their own hypotheses: drop their occurrences up front,
	// restore them before the subset proofs (which may use them).
	prover := constraint.NewProverOver(c, s.external).SetPartialFns(s.partialFns)
	for _, i := range closedPredIdx {
		prover.ExcludePredOnce(c.Preds[i])
	}
	for _, i := range closedPredIdx {
		if !prover.ProvePred(c.Preds[i]) {
			return false
		}
	}
	for _, i := range closedPredIdx {
		prover.RestorePredOnce(c.Preds[i])
	}
	for _, i := range closedSubIdx {
		if !prover.WithoutSubset(c.Subsets[i]).ProveSubset(c.Subsets[i]) {
			return false
		}
	}
	return true
}
