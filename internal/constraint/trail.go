package constraint

import (
	"autopart/internal/dpl"
)

// Trail is an undo log over one System: the solver's backtracking search
// mutates its working system in place through the *T methods and rewinds
// to a mark on backtrack, so a search node costs O(delta) — the conjuncts
// the substitution actually touched — instead of the O(system) full
// Clone+Subst it replaced. Undo also restores the system's lazily built
// index pointer, so index reuse across sibling nodes is free.
//
// A Trail is bound to a single System and is not safe for concurrent use;
// each solvability check runs its own trail over its own system.
type Trail struct {
	sys *System
	ops []trailOp
	// SubstT scratch, reused across calls (a Trail is single-threaded).
	// Substitutions touch few conjuncts, so tracking only the changed
	// ones keeps the hot path allocation-free after warm-up.
	chPredIdx []int
	chPredVal []Pred
	chSubIdx  []int
	chSubVal  []Subset
	remIdx    []int
	keptCh    []int
}

// trailOp is one reversible mutation. Exactly one of the op kinds below
// applies; i is always an index into the slice at the time the op ran.
type trailOp struct {
	kind uint8
	i    int
	pred Pred
	sub  Subset
}

const (
	opPredSet    uint8 = iota // pred holds the previous value at index i
	opPredRemove              // pred holds the removed value; re-insert at i
	opSubsetSet
	opSubsetRemove
)

// NewTrail creates an undo log over sys.
func NewTrail(sys *System) *Trail { return &Trail{sys: sys} }

// Mark captures the current state: the op count, the system's index
// pointers (both are immutable once built, so restoring the pointers
// restores index validity for free), and the fingerprint cache.
type Mark struct {
	n      int
	idx    *sysIndex
	strIdx map[string]string
	fp     [2]uint64
	fpOK   bool
}

// Mark returns a rewind point for UndoTo.
func (t *Trail) Mark() Mark {
	return Mark{n: len(t.ops), idx: t.sys.idx, strIdx: t.sys.strIdx, fp: t.sys.fp, fpOK: t.sys.fpOK}
}

// UndoTo rewinds every mutation recorded after the mark, restoring the
// system to its exact state (content, order, index, and fingerprint) at
// Mark time.
func (t *Trail) UndoTo(m Mark) {
	s := t.sys
	for k := len(t.ops) - 1; k >= m.n; k-- {
		op := t.ops[k]
		switch op.kind {
		case opPredSet:
			s.Preds[op.i] = op.pred
			if s.maskOK {
				s.predMask[op.i], s.predFvs[op.i], s.predFvIDs[op.i] = dpl.FvInfo(op.pred.E)
			}
		case opPredRemove:
			s.Preds = append(s.Preds, Pred{})
			copy(s.Preds[op.i+1:], s.Preds[op.i:])
			s.Preds[op.i] = op.pred
			if s.maskOK {
				s.predMask = append(s.predMask, 0)
				copy(s.predMask[op.i+1:], s.predMask[op.i:])
				s.predFvs = append(s.predFvs, nil)
				copy(s.predFvs[op.i+1:], s.predFvs[op.i:])
				s.predFvIDs = append(s.predFvIDs, nil)
				copy(s.predFvIDs[op.i+1:], s.predFvIDs[op.i:])
				s.predMask[op.i], s.predFvs[op.i], s.predFvIDs[op.i] = dpl.FvInfo(op.pred.E)
			}
		case opSubsetSet:
			s.Subsets[op.i] = op.sub
			if s.maskOK {
				lm, lf, li := dpl.FvInfo(op.sub.L)
				rm, rf, ri := dpl.FvInfo(op.sub.R)
				s.subMask[op.i] = [2]uint64{lm, rm}
				s.subFvs[op.i] = [2][]string{lf, rf}
				s.subFvIDs[op.i] = [2][]int32{li, ri}
			}
		case opSubsetRemove:
			s.Subsets = append(s.Subsets, Subset{})
			copy(s.Subsets[op.i+1:], s.Subsets[op.i:])
			s.Subsets[op.i] = op.sub
			if s.maskOK {
				s.subMask = append(s.subMask, [2]uint64{})
				copy(s.subMask[op.i+1:], s.subMask[op.i:])
				s.subFvs = append(s.subFvs, [2][]string{})
				copy(s.subFvs[op.i+1:], s.subFvs[op.i:])
				s.subFvIDs = append(s.subFvIDs, [2][]int32{})
				copy(s.subFvIDs[op.i+1:], s.subFvIDs[op.i:])
				lm, lf, li := dpl.FvInfo(op.sub.L)
				rm, rf, ri := dpl.FvInfo(op.sub.R)
				s.subMask[op.i] = [2]uint64{lm, rm}
				s.subFvs[op.i] = [2][]string{lf, rf}
				s.subFvIDs[op.i] = [2][]int32{li, ri}
			}
		}
	}
	t.ops = t.ops[:m.n]
	s.idx = m.idx
	s.strIdx = m.strIdx
	s.fp, s.fpOK = m.fp, m.fpOK
}

// setPred overwrites Preds[i], recording the old value.
func (t *Trail) setPred(i int, p Pred) {
	s := t.sys
	t.ops = append(t.ops, trailOp{kind: opPredSet, i: i, pred: s.Preds[i]})
	if s.fpOK {
		s.fpSub(s.Preds[i].hash128())
		s.fpAdd(p.hash128())
	}
	if s.maskOK {
		s.predMask[i], s.predFvs[i], s.predFvIDs[i] = dpl.FvInfo(p.E)
	}
	s.Preds[i] = p
}

// removePredAt deletes Preds[i], recording the removed value.
func (t *Trail) removePredAt(i int) {
	s := t.sys
	t.ops = append(t.ops, trailOp{kind: opPredRemove, i: i, pred: s.Preds[i]})
	if s.fpOK {
		s.fpSub(s.Preds[i].hash128())
	}
	if s.maskOK {
		copy(s.predMask[i:], s.predMask[i+1:])
		s.predMask = s.predMask[:len(s.predMask)-1]
		copy(s.predFvs[i:], s.predFvs[i+1:])
		s.predFvs = s.predFvs[:len(s.predFvs)-1]
		copy(s.predFvIDs[i:], s.predFvIDs[i+1:])
		s.predFvIDs = s.predFvIDs[:len(s.predFvIDs)-1]
	}
	copy(s.Preds[i:], s.Preds[i+1:])
	s.Preds = s.Preds[:len(s.Preds)-1]
}

// setSubset overwrites Subsets[i], recording the old value.
func (t *Trail) setSubset(i int, c Subset) {
	s := t.sys
	t.ops = append(t.ops, trailOp{kind: opSubsetSet, i: i, sub: s.Subsets[i]})
	if s.fpOK {
		s.fpSub(s.Subsets[i].hash128())
		s.fpAdd(c.hash128())
	}
	if s.maskOK {
		lm, lf, li := dpl.FvInfo(c.L)
		rm, rf, ri := dpl.FvInfo(c.R)
		s.subMask[i] = [2]uint64{lm, rm}
		s.subFvs[i] = [2][]string{lf, rf}
		s.subFvIDs[i] = [2][]int32{li, ri}
	}
	s.Subsets[i] = c
}

// removeSubsetAt deletes Subsets[i], recording the removed value.
func (t *Trail) removeSubsetAt(i int) {
	s := t.sys
	t.ops = append(t.ops, trailOp{kind: opSubsetRemove, i: i, sub: s.Subsets[i]})
	if s.fpOK {
		s.fpSub(s.Subsets[i].hash128())
	}
	if s.maskOK {
		copy(s.subMask[i:], s.subMask[i+1:])
		s.subMask = s.subMask[:len(s.subMask)-1]
		copy(s.subFvs[i:], s.subFvs[i+1:])
		s.subFvs = s.subFvs[:len(s.subFvs)-1]
		copy(s.subFvIDs[i:], s.subFvIDs[i+1:])
		s.subFvIDs = s.subFvIDs[:len(s.subFvIDs)-1]
	}
	copy(s.Subsets[i:], s.Subsets[i+1:])
	s.Subsets = s.Subsets[:len(s.Subsets)-1]
}

// RemovePredsT deletes the predicates at the given ascending indices.
func (s *System) RemovePredsT(t *Trail, idx []int) {
	if len(idx) == 0 {
		return
	}
	s.invalidate()
	for k := len(idx) - 1; k >= 0; k-- {
		t.removePredAt(idx[k])
	}
}

// RemoveSubsetsT deletes the subset constraints at the given ascending
// indices.
func (s *System) RemoveSubsetsT(t *Trail, idx []int) {
	if len(idx) == 0 {
		return
	}
	s.invalidate()
	for k := len(idx) - 1; k >= 0; k-- {
		t.removeSubsetAt(idx[k])
	}
}

// SubstT is Subst on the trail: it replaces a partition symbol with an
// expression throughout the system, dropping resulting tautologies and
// duplicates exactly as Subst does, but records every edit so UndoTo can
// rewind it. Conjuncts that do not mention the symbol are neither
// touched nor copied, so the cost (and the trail growth) is O(delta).
func (s *System) SubstT(t *Trail, name string, e dpl.Expr) {
	// Phase 1: compute substituted values without mutating, tracking only
	// the entries that change (ascending index order). The dedup below
	// must compare exactly what Subst compares: the post-substitution
	// values. The per-conjunct free-variable masks rule most conjuncts
	// out with one bit test (a clear bit proves the symbol absent); only
	// possible hits pay the exact Mentions lookup.
	s.ensureMasks()
	bit := dpl.SymBit(name)
	chPredIdx, chPredVal := t.chPredIdx[:0], t.chPredVal[:0]
	for i, p := range s.Preds {
		if s.predMask[i]&bit != 0 && dpl.Mentions(p.E, name) {
			p.E = dpl.Subst(p.E, name, e)
			chPredIdx = append(chPredIdx, i)
			chPredVal = append(chPredVal, p)
		}
	}
	chSubIdx, chSubVal := t.chSubIdx[:0], t.chSubVal[:0]
	for i, c := range s.Subsets {
		m := s.subMask[i]
		if (m[0]|m[1])&bit != 0 && (dpl.Mentions(c.L, name) || dpl.Mentions(c.R, name)) {
			c.L = dpl.Subst(c.L, name, e)
			c.R = dpl.Subst(c.R, name, e)
			chSubIdx = append(chSubIdx, i)
			chSubVal = append(chSubVal, c)
		}
	}
	t.chPredIdx, t.chPredVal = chPredIdx, chPredVal
	t.chSubIdx, t.chSubVal = chSubIdx, chSubVal
	if len(chPredIdx) == 0 && len(chSubIdx) == 0 {
		return
	}
	s.invalidate()

	// Phase 2: replicate Subst's compaction — a conjunct is dropped when
	// an earlier *kept* conjunct equals it and at least one of the two
	// changed (only changed conjuncts can newly collide), or (subsets)
	// when it became a tautology. Unchanged-vs-unchanged pairs can never
	// newly collide, so each conjunct is compared against the kept
	// changed ones, and each changed conjunct additionally against the
	// earlier kept unchanged ones — O(n·changed), not O(n²). Pred and
	// Subset are comparable value structs whose fields are exactly what
	// Subst compares, so == is the structural-equality check.
	rem := t.remIdx[:0]    // removed original indices, ascending
	keptCh := t.keptCh[:0] // kept changed conjuncts, as offsets into chPredIdx
	ci := 0
	for i, orig := range s.Preds {
		changed := ci < len(chPredIdx) && chPredIdx[ci] == i
		v := orig
		if changed {
			v = chPredVal[ci]
		}
		dup := false
		for _, k := range keptCh {
			if chPredVal[k] == v {
				dup = true
				break
			}
		}
		if !dup && changed {
			rj, cj := 0, 0
			for j := 0; j < i && !dup; j++ {
				isRem := rj < len(rem) && rem[rj] == j
				if isRem {
					rj++
				}
				isCh := cj < len(chPredIdx) && chPredIdx[cj] == j
				if isCh {
					cj++
				}
				if isRem || isCh {
					continue
				}
				if s.Preds[j] == v {
					dup = true
				}
			}
		}
		if dup {
			rem = append(rem, i)
		} else if changed {
			keptCh = append(keptCh, ci)
		}
		if changed {
			ci++
		}
	}

	// Apply preds: overwrite surviving changed entries at their original
	// positions (indices still original — nothing has moved yet), then
	// delete removed entries from highest index down so earlier indices
	// stay valid. UndoTo replays this exactly in reverse.
	for _, k := range keptCh {
		t.setPred(chPredIdx[k], chPredVal[k])
	}
	for k := len(rem) - 1; k >= 0; k-- {
		t.removePredAt(rem[k])
	}

	// Subsets: same scheme, plus Subst's tautology drop, which applies
	// to every conjunct (changed or not).
	rem = rem[:0]
	keptCh = keptCh[:0]
	ci = 0
	for i, orig := range s.Subsets {
		changed := ci < len(chSubIdx) && chSubIdx[ci] == i
		v := orig
		if changed {
			v = chSubVal[ci]
		}
		dup := dpl.Equal(v.L, v.R)
		if !dup {
			for _, k := range keptCh {
				if chSubVal[k] == v {
					dup = true
					break
				}
			}
		}
		if !dup && changed {
			rj, cj := 0, 0
			for j := 0; j < i && !dup; j++ {
				isRem := rj < len(rem) && rem[rj] == j
				if isRem {
					rj++
				}
				isCh := cj < len(chSubIdx) && chSubIdx[cj] == j
				if isCh {
					cj++
				}
				if isRem || isCh {
					continue
				}
				if s.Subsets[j] == v {
					dup = true
				}
			}
		}
		if dup {
			rem = append(rem, i)
		} else if changed {
			keptCh = append(keptCh, ci)
		}
		if changed {
			ci++
		}
	}
	for _, k := range keptCh {
		t.setSubset(chSubIdx[k], chSubVal[k])
	}
	for k := len(rem) - 1; k >= 0; k-- {
		t.removeSubsetAt(rem[k])
	}
	t.remIdx, t.keptCh = rem, keptCh
}
