package solver

import (
	"sort"
	"time"

	"autopart/internal/constraint"
	"autopart/internal/dpl"
	"autopart/internal/infer"
	"autopart/internal/lang"
)

// solvableBudget caps each Algorithm 3 candidate check: checks only need
// a yes/no, so they get a much smaller node allowance than a full Solve.
const solvableBudget = 20000

// solvable runs a full solve on a candidate system (Algorithm 3 line 13).
// Verdicts are memoized by canonical system fingerprint: the per-round
// candidates differ only in a few renamed conjuncts, and later rounds
// (and later systems) re-produce merged systems checked before. The
// verdict is a deterministic function of the conjunct set and the
// solver's fixed external assumptions, so the cache is sound. Each miss
// runs its own search, with its own budget over its own working clone.
func (s *Solver) solvable(sys *constraint.System) bool {
	key := memoKey{kind: memoSolvable, ctx: s.ctx, fp: sys.Fingerprint128()}
	if v, hit := s.cache.lookup(key); hit {
		s.stats.MemoHits++
		return v
	}
	s.stats.MemoMisses++
	sr := s.newSearch(sys, solvableBudget)
	_, ok := sr.solve(nil, s.unresolved(sr.c))
	s.cache.store(key, ok)
	return ok
}

// checkGraphCache makes UnifyAndSolve fingerprint-check every graph its
// accumulated-graph cache serves against a fresh BuildGraph, panicking
// on a mismatch. The solver's tests switch it on; compiles skip the
// rebuild it costs.
var checkGraphCache bool

// sysSize measures a system for Algorithm 3's descending-size sort.
func sysSize(sys *constraint.System) int {
	return len(sys.Preds) + len(sys.Subsets)
}

// UnifyAndSolve implements Algorithm 3: greedily unify isomorphic
// constraint subgraphs across the per-loop systems (and against external
// partitions), checking solvability after each unification, then solve
// the combined system.
func (s *Solver) UnifyAndSolve(systems []*constraint.System) (*constraint.System, map[string]string, error) {
	defer func(t0 time.Time) { s.stats.UnifyNS += time.Since(t0).Nanoseconds() }(time.Now())
	canon := map[string]string{}

	ordered := append([]*constraint.System(nil), systems...)
	sort.SliceStable(ordered, func(i, j int) bool { return sysSize(ordered[i]) > sysSize(ordered[j]) })

	combined := &constraint.System{}

	// §3.2 needs membership sets over the accumulated conjuncts: the
	// baseline "already present" set (external ∪ combined) and combined's
	// own set. Both grow monotonically — combined only ever appends — so
	// they are maintained incrementally across the whole run instead of
	// being rebuilt per system (which made unification quadratic in the
	// accumulated size across many-loop programs). extCombined is the
	// deduplicated conjunction of external and combined: the external
	// conjuncts followed by combined's novel ones, in append order.
	basePred := make(map[constraint.Pred]bool, len(s.external.Preds))
	baseSub := make(map[constraint.Subset]bool, len(s.external.Subsets))
	combinedPred := map[constraint.Pred]bool{}
	combinedSub := map[constraint.Subset]bool{}
	extCombined := &constraint.System{}
	for _, q := range s.external.Preds {
		if !basePred[q] {
			basePred[q] = true
			extCombined.Preds = append(extCombined.Preds, q)
		}
	}
	for _, q := range s.external.Subsets {
		if !dpl.Equal(q.L, q.R) && !baseSub[q] {
			baseSub[q] = true
			extCombined.Subsets = append(extCombined.Subsets, q)
		}
	}

	// The accumulated system starts from the external assumptions'
	// *graph-relevant* content so inferred symbols can unify directly
	// with user partitions (Example 6); the assumptions themselves stay
	// in s.external and are not obligations. extCombined carries exactly
	// that content (deduplicated, tautology-free — neither affects the
	// graph), so it doubles as the initial accumulated system.
	accGraphSys := extCombined

	// The accumulated graph is maintained incrementally. Every system
	// flowing through accGraphSys is extCombined, or extCombined's
	// conjuncts plus an appended remainder (mergeWithBase), and
	// extCombined itself only ever grows by appending (growCombined) —
	// so extGraph, the graph of extCombined's conjuncts, is extended
	// with each delta instead of rebuilt, and per-round merged graphs
	// extend it further. The prefix invariant is by construction; with
	// checkGraphCache on (every solver test) each served graph is checked
	// against a fresh BuildGraph so an in-place System mutation (or a
	// broken invariant) can never silently serve a stale graph. Systems are
	// never mutated after construction (growCombined and mergeWithBase
	// hand out fresh headers whenever content grows), so pointer
	// identity remains a sound round-to-round cache key.
	var cachedAccGraph, extGraph *constraint.Graph
	var cachedAccFor *constraint.System
	accGraphOf := func(sys *constraint.System) *constraint.Graph {
		if cachedAccFor != sys {
			// Sync the base graph to extCombined's current content
			// first; both only ever append, so the delta is cheap.
			switch {
			case extGraph == nil:
				extGraph = constraint.BuildGraph(extCombined)
				s.stats.GraphBuilds++
			case !extGraph.Covers(extCombined):
				extGraph = extGraph.Extended(extCombined)
				s.stats.GraphExtends++
			}
			if sys == extCombined {
				cachedAccGraph = extGraph
			} else {
				cachedAccGraph = extGraph.Extended(sys)
				s.stats.GraphExtends++
			}
			cachedAccFor = sys
			if checkGraphCache {
				fresh := constraint.BuildGraph(sys)
				if fresh.Fingerprint() != cachedAccGraph.Fingerprint() {
					panic("solver: accumulated-graph cache served a stale graph")
				}
			}
		}
		return cachedAccGraph
	}

	// growCombined appends sys's novel, non-tautological conjuncts to
	// combined and extCombined (preserving append order), updating
	// the membership sets. Grown systems get fresh System headers so
	// lazily built caches (index, masks, fingerprint) never go stale;
	// untouched ones keep their pointer, which the accumulated-graph
	// cache below relies on.
	growCombined := func(sys *constraint.System) {
		nc, ne := len(combined.Preds)+len(combined.Subsets), len(extCombined.Preds)+len(extCombined.Subsets)
		for _, q := range sys.Preds {
			if !combinedPred[q] {
				combinedPred[q] = true
				combined.Preds = append(combined.Preds, q)
				if !basePred[q] {
					basePred[q] = true
					extCombined.Preds = append(extCombined.Preds, q)
				}
			}
		}
		for _, q := range sys.Subsets {
			if dpl.Equal(q.L, q.R) {
				continue
			}
			if !combinedSub[q] {
				combinedSub[q] = true
				combined.Subsets = append(combined.Subsets, q)
				if !baseSub[q] {
					baseSub[q] = true
					extCombined.Subsets = append(extCombined.Subsets, q)
				}
			}
		}
		if len(combined.Preds)+len(combined.Subsets) != nc {
			combined = &constraint.System{Preds: combined.Preds, Subsets: combined.Subsets}
		}
		if len(extCombined.Preds)+len(extCombined.Subsets) != ne {
			extCombined = &constraint.System{Preds: extCombined.Preds, Subsets: extCombined.Subsets}
		}
	}

	// Each unification round is a deterministic function of the solving
	// context, the accumulated state, and the incoming system, so its
	// greedy winner is memoized in the shared cache: a warm service
	// replays the committed renames of an identical round without
	// building graphs, matching subgraphs, or running candidate checks.
	// The key folds *order-sensitive* system fingerprints — the winner
	// depends on graph construction order, which follows conjunct order,
	// so the order-free Fingerprint128 would conflate distinct rounds.
	// Fingerprints are cached per System pointer for this call; systems
	// are never mutated after construction (grown ones get fresh
	// headers), so pointer identity is a sound cache key here too.
	orderedFPs := map[*constraint.System][2]uint64{}
	orderedFPOf := func(sys *constraint.System) [2]uint64 {
		fp, ok := orderedFPs[sys]
		if !ok {
			fp = sys.OrderedFingerprint128()
			orderedFPs[sys] = fp
		}
		return fp
	}
	extOrderedFP := s.external.OrderedFingerprint128()
	roundKey := func(acc, remaining *constraint.System) memoKey {
		const p1, p2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
		fp := extOrderedFP
		for _, h := range [][2]uint64{orderedFPOf(acc), orderedFPOf(combined), orderedFPOf(remaining)} {
			fp[0] = (fp[0] ^ h[0]) * p1
			fp[1] = (fp[1] ^ h[1]) * p2
		}
		return memoKey{kind: memoUnify, ctx: s.ctx, fp: fp}
	}

	for _, cur := range ordered {
		remaining := cur.Clone()
		// Bound the unification rounds per system: each round runs full
		// solvability checks, and in practice the first round or two find
		// everything worth merging.
		for round := 0; round < 4; round++ {
			// Nothing left to unify: an empty remaining system yields an
			// empty graph, no candidate mappings, and no winner — skip
			// rebuilding the (large) accumulated graph just to find that.
			if sysSize(remaining) == 0 {
				break
			}
			rk := roundKey(accGraphSys, remaining)
			if w, hit := s.cache.lookupUnify(rk); hit {
				s.stats.UnifyRoundHits++
				if w.renames == nil {
					break
				}
				renames := make(map[string]string, len(w.renames))
				for _, rp := range w.renames {
					renames[rp.from] = rp.to
					canon[rp.from] = rp.to
				}
				remaining = subtractSets(applyRenames(remaining, renames), combinedPred, combinedSub)
				accGraphSys = mergeWithBase(extCombined, remaining, basePred, baseSub)
				continue
			}
			s.stats.UnifyRoundMisses++
			accGraph := accGraphOf(accGraphSys)
			curGraph := constraint.BuildGraph(remaining)

			// Greedily consider only the first few largest candidates (as
			// the paper notes, the largest subgraphs usually contain the
			// smaller ones, and each check runs a full solve).
			const maxTries = 6
			// The round's §3.2 counts are built on its first mapping
			// that renames a symbol; a round may yield none.
			var delta *deltaTable
			type unifyCand struct {
				renames   map[string]string
				candidate *constraint.System
				auto      bool // all renamed conjuncts already present
			}
			// filterCand applies the rename filter and the §3.2 delta
			// tests to one mapping; nil means the mapping is skipped
			// without consuming a try. A candidate that passes has a
			// conjunct outside the baseline, so its check merges it into
			// combined (mergeWithBase against combined's own sets) as a
			// fresh system; combined itself is never handed out.
			filterCand := func(m constraint.Mapping) *unifyCand {
				// Keep only fresh→existing renamings.
				renames := map[string]string{}
				for from, to := range m {
					if from == to || s.externalSyms[from] {
						continue
					}
					renames[from] = to
				}
				if len(renames) == 0 {
					return nil
				}
				if delta == nil {
					delta = newDeltaTable(remaining, basePred, baseSub)
				}
				// Most mappings fail the test (93 % on MiniAero), so the
				// renamed system is materialized only for those that pass.
				deltaSubs, deltaTotal, candidate := delta.renamedCounts(renames)
				if deltaCheck != nil {
					deltaCheck(delta, renames, deltaSubs, deltaTotal)
				}
				if deltaSubs >= delta.nSub {
					return nil
				}
				if candidate == nil {
					candidate = remaining.RenamedSyms(renames)
				}
				// deltaTotal == 0: the renamed conjuncts are all already
				// present, the merge changes nothing, and no solvability
				// check is needed — the common case for programs whose
				// loops share structure (MiniAero's RK stages, PENNANT's
				// phases). The greedy loop commits it at once.
				return &unifyCand{renames: renames, candidate: candidate, auto: deltaTotal == 0}
			}
			// The greedy loop: the first candidate whose merged system
			// stays solvable wins, and the early exit skips building
			// (and materializing) every later candidate.
			var winner *unifyCand
			tries := 0
			constraint.EachCommonSubgraph(accGraph, curGraph, func(m constraint.Mapping) bool {
				if tries >= maxTries {
					return false
				}
				cand := filterCand(m)
				if cand == nil {
					return true
				}
				if cand.auto {
					winner = cand
					return false
				}
				tries++
				if s.solvable(mergeWithBase(combined, cand.candidate, combinedPred, combinedSub)) {
					winner = cand
					return false
				}
				return true
			})
			if winner == nil {
				// A nil rename set memoizes "no winner": the identical
				// round in a later compile stops unifying immediately.
				s.cache.storeUnify(rk, unifyWinner{})
				break
			}
			// Commit this unification, memoizing the committed renames for
			// identical future rounds (sorted for deterministic replay).
			pairs := make([]renamePair, 0, len(winner.renames))
			for from, to := range winner.renames {
				pairs = append(pairs, renamePair{from: from, to: to})
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i].from < pairs[j].from })
			s.cache.storeUnify(rk, unifyWinner{renames: pairs})
			remaining = winner.candidate
			for from, to := range winner.renames {
				canon[from] = to
			}
			// Filter conjuncts already accumulated and keep looking for
			// further common subgraphs (line 16 of Algorithm 3). The live
			// membership sets stand in for a subtract/merge pass over the
			// accumulated conjuncts.
			remaining = subtractSets(remaining, combinedPred, combinedSub)
			accGraphSys = mergeWithBase(extCombined, remaining, basePred, baseSub)
		}
		growCombined(remaining)
		accGraphSys = extCombined
	}

	// Resolve canonical chains (a symbol may have been renamed to a
	// symbol that was itself renamed later... chains are short). The hop
	// bound guards against a cyclic map, which would otherwise hang.
	for from := range canon {
		to := canon[from]
		for hops := 0; hops <= len(canon); hops++ {
			next, ok := canon[to]
			if !ok || next == to {
				break
			}
			to = next
		}
		canon[from] = to
	}
	return combined, canon, nil
}

// applyRenames substitutes symbols by symbols — simultaneously in the
// common case (one pass over the system). When a renamed-to symbol is
// itself renamed, simultaneous and chained application differ, so that
// (never observed) case falls back to one Subst per entry, in sorted
// order for determinism.
func applyRenames(sys *constraint.System, renames map[string]string) *constraint.System {
	if !chainedRenames(renames) {
		return sys.RenamedSyms(renames)
	}
	froms := make([]string, 0, len(renames))
	for from := range renames {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	out := sys.Clone()
	for _, from := range froms {
		out.Subst(from, dpl.Var{Name: renames[from]})
	}
	return out
}

// chainedRenames reports whether some renamed-to symbol is itself
// renamed, where simultaneous and sequential renaming differ.
func chainedRenames(renames map[string]string) bool {
	for _, to := range renames {
		if _, ok := renames[to]; ok {
			return true
		}
	}
	return false
}

// deltaCheck, when set, sees every §3.2 test of a round: the round's
// table, the mapping's renames and the counts the test used. The
// solver's tests hold the counts against a renamed copy.
var deltaCheck func(t *deltaTable, renames map[string]string, subs, total int)

// deltaTable counts the novel conjuncts of one round's remaining system
// for Algorithm 3's §3.2 test: those neither in the baseline membership
// sets (external ∪ combined) nor tautological, each distinct conjunct
// once. Under a rename it recounts only the conjuncts that mention a
// renamed symbol, where a renamed copy of the system costs work in all
// of them.
//
// The keys are the conjunct values, not interned expression ids: an id
// would intern every rejected image into the shared expression table,
// and most images are rejected.
type deltaTable struct {
	sys      *constraint.System
	basePred map[constraint.Pred]bool
	baseSub  map[constraint.Subset]bool

	// preds and subs hold sys's novel conjuncts, nPred and nSub their
	// number; firstPred[i] and firstSub[i] mark the conjuncts that put
	// their key there first.
	preds               map[constraint.Pred]bool
	subs                map[constraint.Subset]bool
	firstPred, firstSub []bool
	nPred, nSub         int

	// Per-rename scratch: the renamed symbols' ids and the novel images
	// counted so far.
	fromIDs  []int32
	seenPred map[constraint.Pred]bool
	seenSub  map[constraint.Subset]bool
}

func newDeltaTable(sys *constraint.System, basePred map[constraint.Pred]bool, baseSub map[constraint.Subset]bool) *deltaTable {
	t := &deltaTable{
		sys: sys, basePred: basePred, baseSub: baseSub,
		preds:     map[constraint.Pred]bool{},
		subs:      map[constraint.Subset]bool{},
		firstPred: make([]bool, len(sys.Preds)),
		firstSub:  make([]bool, len(sys.Subsets)),
	}
	for i, p := range sys.Preds {
		if !basePred[p] && !t.preds[p] {
			t.preds[p] = true
			t.firstPred[i] = true
			t.nPred++
		}
	}
	for i, c := range sys.Subsets {
		if !dpl.Equal(c.L, c.R) && !baseSub[c] && !t.subs[c] {
			t.subs[c] = true
			t.firstSub[i] = true
			t.nSub++
		}
	}
	return t
}

// counts returns the novel subset count and the novel conjunct count.
func (t *deltaTable) counts() (subs, total int) { return t.nSub, t.nPred + t.nSub }

// renamedCounts returns counts() of sys under renames, only reading the
// table. A chained rename map takes applyRenames' sequential path and
// is counted on the system that path materializes, which it also
// returns; otherwise renamed is nil.
//
// Without a chain, no image mentions a renamed symbol. So every key
// that does mention one leaves the count (all its occurrences are
// touched), and no image is such a key: an image counts when it is
// novel, not tautological, and not a key the untouched conjuncts keep.
func (t *deltaTable) renamedCounts(renames map[string]string) (subs, total int, renamed *constraint.System) {
	if chainedRenames(renames) {
		renamed = applyRenames(t.sys, renames)
		subs, total = newDeltaTable(renamed, t.basePred, t.baseSub).counts()
		return subs, total, renamed
	}
	t.fromIDs = t.fromIDs[:0]
	for from := range renames {
		t.fromIDs = append(t.fromIDs, dpl.SymID(from))
	}
	if t.seenPred == nil {
		t.seenPred, t.seenSub = map[constraint.Pred]bool{}, map[constraint.Subset]bool{}
	} else {
		clear(t.seenPred)
		clear(t.seenSub)
	}
	nPred, nSub := t.nPred, t.nSub
	for i, ids := range t.sys.PredFvIDs() {
		if !t.mentionsRenamed(ids) {
			continue
		}
		if t.firstPred[i] {
			nPred--
		}
		p := t.sys.Preds[i]
		p.E = dpl.RenameVars(p.E, renames)
		if !t.basePred[p] && !t.preds[p] && !t.seenPred[p] {
			t.seenPred[p] = true
			nPred++
		}
	}
	for i, ids := range t.sys.SubsetFvIDs() {
		if !t.mentionsRenamed(ids[0]) && !t.mentionsRenamed(ids[1]) {
			continue
		}
		if t.firstSub[i] {
			nSub--
		}
		c := t.sys.Subsets[i]
		c.L, c.R = dpl.RenameVars(c.L, renames), dpl.RenameVars(c.R, renames)
		if !dpl.Equal(c.L, c.R) && !t.baseSub[c] && !t.subs[c] && !t.seenSub[c] {
			t.seenSub[c] = true
			nSub++
		}
	}
	return nSub, nPred + nSub, nil
}

// mentionsRenamed reports whether a conjunct side's free-variable ids
// include a renamed symbol.
func (t *deltaTable) mentionsRenamed(ids []int32) bool {
	for _, id := range ids {
		for _, f := range t.fromIDs {
			if id == f {
				return true
			}
		}
	}
	return false
}

// subtractSets removes the conjuncts in the membership sets from a and
// deduplicates the rest (the solver maintains combined's sets
// incrementally, so the per-commit pass over the accumulated system
// disappears). Pred and Subset are comparable value structs whose
// expressions are structurally unique under ==, so they serve as map
// keys directly here and in mergeWithBase — linear, with no string
// building (constructing conjunct Keys would cost more than it saves).
func subtractSets(a *constraint.System, predB map[constraint.Pred]bool, subB map[constraint.Subset]bool) *constraint.System {
	out := &constraint.System{}
	predSeen := map[constraint.Pred]bool{}
	for _, p := range a.Preds {
		if !predB[p] && !predSeen[p] {
			predSeen[p] = true
			out.Preds = append(out.Preds, p)
		}
	}
	subSeen := map[constraint.Subset]bool{}
	for _, c := range a.Subsets {
		if dpl.Equal(c.L, c.R) {
			continue
		}
		if !subB[c] && !subSeen[c] {
			subSeen[c] = true
			out.Subsets = append(out.Subsets, c)
		}
	}
	return out
}

// mergeWithBase conjoins prefix (already deduplicated) with add's
// conjuncts not in the base membership sets, deduplicated — specialized
// to the "accumulated system plus fresh remainder" shape so only the
// small side pays dedup hashing.
func mergeWithBase(prefix, add *constraint.System, basePred map[constraint.Pred]bool, baseSub map[constraint.Subset]bool) *constraint.System {
	out := &constraint.System{
		Preds:   append(make([]constraint.Pred, 0, len(prefix.Preds)+len(add.Preds)), prefix.Preds...),
		Subsets: append(make([]constraint.Subset, 0, len(prefix.Subsets)+len(add.Subsets)), prefix.Subsets...),
	}
	predSeen := map[constraint.Pred]bool{}
	for _, p := range add.Preds {
		if !basePred[p] && !predSeen[p] {
			predSeen[p] = true
			out.Preds = append(out.Preds, p)
		}
	}
	subSeen := map[constraint.Subset]bool{}
	for _, c := range add.Subsets {
		if dpl.Equal(c.L, c.R) {
			continue
		}
		if !baseSub[c] && !subSeen[c] {
			subSeen[c] = true
			out.Subsets = append(out.Subsets, c)
		}
	}
	if len(out.Preds) == len(prefix.Preds) && len(out.Subsets) == len(prefix.Subsets) {
		// Nothing novel: hand back the prefix itself so pointer-keyed
		// caches (the accumulated-graph cache) keep working.
		return prefix
	}
	return out
}

// SolveProgram is the full §3 pipeline over the inference results of all
// loops: unify, solve, and post-process the DPL program (nested-
// subexpression reuse plus CSE). It uses a private per-compile memo
// cache; a compile service shares verdicts across compiles through
// SolveProgramPartial.
func SolveProgram(results []*infer.Result, external *constraint.System, externalSyms []string) (*Solution, error) {
	return SolveProgramPartial(results, external, externalSyms, nil, nil)
}

// SolveProgramPartial is SolveProgram with an injected cross-compile
// memo cache (nil selects a private one) and the program's declared-
// partial index function set. Verdict reuse never changes output:
// cached solvability/closed/refuted verdicts are exactly what the
// searches would recompute, so a warm cache accelerates the same
// byte-identical solution. Provers refuse totality-dependent lemmas
// (L7) on the partial functions, and the memo context is keyed on the
// set so a shared cache never serves total-world verdicts to a
// partial-world program.
func SolveProgramPartial(results []*infer.Result, external *constraint.System, externalSyms []string, cache *MemoCache, partialFns map[string]bool) (*Solution, error) {
	s := NewWithCache(external, externalSyms, cache)
	if len(partialFns) > 0 {
		s.SetPartialFns(partialFns)
	}
	systems := make([]*constraint.System, len(results))
	for i, r := range results {
		systems[i] = r.Sys
	}
	combined, canon, err := s.UnifyAndSolve(systems)
	if err != nil {
		return nil, err
	}
	prog, err := s.Solve(combined)
	if err != nil {
		return nil, err
	}

	// Fill identity entries so Resolve works for every original symbol.
	for _, r := range results {
		for _, a := range r.Accesses {
			if _, ok := canon[a.Sym]; !ok {
				canon[a.Sym] = a.Sym
			}
		}
		if _, ok := canon[r.IterSym]; !ok {
			canon[r.IterSym] = r.IterSym
		}
	}

	prog = reuseSubexpressions(prog)
	prog = prog.CSE()
	ext := map[string]bool{}
	for _, sym := range externalSyms {
		ext[sym] = true
	}
	prog = orderProgram(prog, ext)
	if err := prog.TopoCheck(ext); err != nil {
		return nil, lang.Errorf("S002", lang.Span{}, "solver: internal error: %v", err)
	}

	finalSys := combined.Clone()
	for _, st := range prog.Stmts {
		finalSys.Subst(st.Name, st.Expr)
	}
	return &Solution{
		Program:      prog,
		Canon:        canon,
		System:       finalSys,
		ExternalSyms: externalSyms,
		Stats:        s.Stats(),
	}, nil
}

// reuseSubexpressions rewrites each statement's RHS so that nested
// subexpressions structurally equal to an earlier statement's RHS become
// references to that statement's symbol. This recovers the dependent
// structure of Fig. 10b (P4 = image(P3, ...) instead of a fully expanded
// nest) because solved equations are otherwise fully substituted.
func reuseSubexpressions(prog dpl.Program) dpl.Program {
	type def struct {
		name string
		expr dpl.Expr
		size int
	}
	var defs []def
	var out dpl.Program
	for _, st := range prog.Stmts {
		e := st.Expr
		// Replace biggest earlier definitions first so maximal sharing
		// wins.
		sort.SliceStable(defs, func(i, j int) bool { return defs[i].size > defs[j].size })
		for _, d := range defs {
			e = replaceSubexpr(e, d.expr, dpl.Var{Name: d.name})
		}
		out.Append(st.Name, e)
		defs = append(defs, def{name: st.Name, expr: st.Expr, size: dpl.Size(st.Expr)})
	}
	return out
}

// replaceSubexpr substitutes every occurrence of target (a non-Var
// expression) in e with repl; it does not replace e itself when e equals
// target at the top level (that would turn a definition into a self-
// alias) — callers replace only strictly nested occurrences.
func replaceSubexpr(e, target, repl dpl.Expr) dpl.Expr {
	rec := func(sub dpl.Expr) dpl.Expr {
		if dpl.Equal(sub, target) {
			return repl
		}
		return replaceSubexpr(sub, target, repl)
	}
	switch x := e.(type) {
	case dpl.ImageExpr:
		return dpl.ImageExpr{Of: rec(x.Of), Func: x.Func, Region: x.Region}
	case dpl.PreimageExpr:
		return dpl.PreimageExpr{Region: x.Region, Func: x.Func, Of: rec(x.Of)}
	case dpl.ImageMultiExpr:
		return dpl.ImageMultiExpr{Of: rec(x.Of), Func: x.Func, Region: x.Region}
	case dpl.PreimageMultiExpr:
		return dpl.PreimageMultiExpr{Region: x.Region, Func: x.Func, Of: rec(x.Of)}
	case dpl.BinExpr:
		return dpl.BinExpr{Op: x.Op, L: rec(x.L), R: rec(x.R)}
	default:
		return e
	}
}

// orderProgram topologically orders statements so uses follow
// definitions (reuseSubexpressions can introduce forward references when
// a later, larger definition is folded into an earlier one — ordering by
// dependencies restores a valid program).
func orderProgram(prog dpl.Program, external map[string]bool) dpl.Program {
	defined := map[string]bool{}
	for name := range external {
		defined[name] = true
	}
	pending := append([]dpl.Stmt(nil), prog.Stmts...)
	var out dpl.Program
	for len(pending) > 0 {
		progress := false
		rest := pending[:0]
		for _, st := range pending {
			ready := true
			for _, v := range dpl.FreeVars(st.Expr) {
				if !defined[v] {
					ready = false
					break
				}
			}
			if ready {
				out.Stmts = append(out.Stmts, st)
				defined[st.Name] = true
				progress = true
			} else {
				rest = append(rest, st)
			}
		}
		pending = append([]dpl.Stmt(nil), rest...)
		if !progress {
			// A dependency cycle should be impossible; emit the rest
			// as-is and let TopoCheck report it.
			out.Stmts = append(out.Stmts, pending...)
			break
		}
	}
	return out
}
