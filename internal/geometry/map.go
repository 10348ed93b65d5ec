package geometry

// IndexMap is a (possibly partial) function from indices to indices. It is
// the f in image(E, f, R) and preimage(R, f, E): pointer fields of regions
// (Particles[·].cell), affine neighbor functions (h(c) = c+1), and the
// identity map all implement it.
type IndexMap interface {
	// MapName identifies the function in diagnostics and printed DPL code.
	MapName() string
	// Apply returns f(k). The second result is false when k is outside the
	// domain of f (e.g. a null pointer field).
	Apply(k int64) (int64, bool)
}

// MultiMap is a function from indices to sets of indices; the F in the
// generalized IMAGE and PREIMAGE operators of §4 (e.g. the CSR Ranges
// region mapping each row to its run of nonzero slots).
type MultiMap interface {
	MapName() string
	// ApplyMulti returns F(k), the set of indices k maps to.
	ApplyMulti(k int64) IndexSet
}

// IdentityMap is the identity function on indices.
type IdentityMap struct{}

// MapName implements IndexMap.
func (IdentityMap) MapName() string { return "id" }

// Apply implements IndexMap.
func (IdentityMap) Apply(k int64) (int64, bool) { return k, true }

// AffineMap is the function f(k) = Stride*k + Offset, restricted to
// results within Domain when Domain is non-empty. It models stencil
// neighbor accesses such as h(c) = c + 1.
type AffineMap struct {
	Name           string
	Stride, Offset int64
	// Clamp restricts results: when non-nil, out-of-set results are
	// treated as out of domain rather than wrapped.
	Clamp *Interval
	// Modulo, when > 0, wraps the result into [0, Modulo) (periodic
	// boundary conditions).
	Modulo int64
}

// MapName implements IndexMap.
func (m AffineMap) MapName() string { return m.Name }

// Apply implements IndexMap.
func (m AffineMap) Apply(k int64) (int64, bool) {
	v := m.Stride*k + m.Offset
	if m.Modulo > 0 {
		v %= m.Modulo
		if v < 0 {
			v += m.Modulo
		}
	}
	if m.Clamp != nil && !m.Clamp.Contains(v) {
		return 0, false
	}
	return v, true
}

// TableMap is an IndexMap backed by an explicit table; entries < 0 are out
// of domain. It is primarily used by tests and by region pointer fields.
type TableMap struct {
	Name  string
	Table []int64
}

// MapName implements IndexMap.
func (m TableMap) MapName() string { return m.Name }

// Apply implements IndexMap.
func (m TableMap) Apply(k int64) (int64, bool) {
	if k < 0 || k >= int64(len(m.Table)) || m.Table[k] < 0 {
		return 0, false
	}
	return m.Table[k], true
}

// RangeTableMap is a MultiMap backed by per-index intervals, the shape of
// the CSR Ranges region in Fig. 10a.
type RangeTableMap struct {
	Name   string
	Ranges []Interval
}

// MapName implements MultiMap.
func (m RangeTableMap) MapName() string { return m.Name }

// ApplyMulti implements MultiMap.
func (m RangeTableMap) ApplyMulti(k int64) IndexSet {
	if k < 0 || k >= int64(len(m.Ranges)) {
		return IndexSet{}
	}
	iv := m.Ranges[k]
	return Range(iv.Lo, iv.Hi)
}

// Lift converts an IndexMap into a MultiMap via f↑(x) = {f(x)} (§4).
func Lift(f IndexMap) MultiMap { return liftedMap{f} }

type liftedMap struct{ f IndexMap }

func (l liftedMap) MapName() string { return l.f.MapName() }

func (l liftedMap) ApplyMulti(k int64) IndexSet {
	v, ok := l.f.Apply(k)
	if !ok {
		return IndexSet{}
	}
	return Range(v, v+1)
}

// Image computes { f(k) | k ∈ s, f(k) defined } ∩ codomain. A nil codomain
// check is expressed by passing the full region set. Identity, affine
// (stride 0/±1), and table maps take interval-native fast paths; other
// maps fall back to the per-element evaluation.
func Image(s IndexSet, f IndexMap, codomain IndexSet) IndexSet {
	switch m := f.(type) {
	case IdentityMap:
		return imageIdentity(s, codomain)
	case AffineMap:
		if affineFastPath(m) {
			return imageAffine(s, m, codomain)
		}
	case TableMap:
		return imageTable(s, m, codomain)
	}
	return imageGeneric(s, f, codomain)
}

func imageGeneric(s IndexSet, f IndexMap, codomain IndexSet) IndexSet {
	var b Builder
	s.Each(func(k int64) bool {
		if v, ok := f.Apply(k); ok && codomain.Contains(v) {
			b.Add(v)
		}
		return true
	})
	return b.Build()
}

// Preimage computes { k ∈ domain | f(k) ∈ target }, with the same
// fast-path dispatch as Image.
func Preimage(domain IndexSet, f IndexMap, target IndexSet) IndexSet {
	switch m := f.(type) {
	case IdentityMap:
		return domain.Intersect(target)
	case AffineMap:
		if affineFastPath(m) {
			return preimageAffine(domain, m, target)
		}
	case TableMap:
		return PreimageTable(domain, m, []IndexSet{target})[0]
	}
	return preimageGeneric(domain, f, target)
}

func preimageGeneric(domain IndexSet, f IndexMap, target IndexSet) IndexSet {
	var b Builder
	domain.Each(func(k int64) bool {
		if v, ok := f.Apply(k); ok && target.Contains(v) {
			b.Add(k)
		}
		return true
	})
	return b.Build()
}

// ImageMulti computes ⋃{ F(k) | k ∈ s } ∩ codomain — the generalized IMAGE
// of §4. Range-table maps take a batched sort-and-merge path; lifted
// single-valued maps route through Image's fast paths.
func ImageMulti(s IndexSet, f MultiMap, codomain IndexSet) IndexSet {
	switch m := f.(type) {
	case RangeTableMap:
		return imageRangeTable(s, m, codomain)
	case liftedMap:
		return Image(s, m.f, codomain)
	}
	return imageMultiGeneric(s, f, codomain)
}

func imageMultiGeneric(s IndexSet, f MultiMap, codomain IndexSet) IndexSet {
	var b Builder
	s.Each(func(k int64) bool {
		b.AddSet(f.ApplyMulti(k).Intersect(codomain))
		return true
	})
	return b.Build()
}

// PreimageMulti computes { l ∈ domain | F(l) ∩ target ≠ ∅ } — the
// generalized PREIMAGE of §4: the domain indices whose image under F meets
// the target set. Range-table maps use a per-index binary-search overlap
// test; lifted single-valued maps route through Preimage's fast paths.
func PreimageMulti(domain IndexSet, f MultiMap, target IndexSet) IndexSet {
	switch m := f.(type) {
	case RangeTableMap:
		return preimageRangeTable(domain, m, target)
	case liftedMap:
		return Preimage(domain, m.f, target)
	}
	return preimageMultiGeneric(domain, f, target)
}

func preimageMultiGeneric(domain IndexSet, f MultiMap, target IndexSet) IndexSet {
	var b Builder
	domain.Each(func(l int64) bool {
		if !f.ApplyMulti(l).Disjoint(target) {
			b.Add(l)
		}
		return true
	})
	return b.Build()
}
