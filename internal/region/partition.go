package region

import (
	"fmt"
	"strings"
	"sync"

	"autopart/internal/geometry"
	"autopart/internal/par"
)

// Partition is a first-class, indexed family of subregions of a parent
// region: Partition[i] is the index set of the ith subregion. All
// partitions appearing together in one parallel launch share the same
// color space [0, NumSubs).
type Partition struct {
	name   string
	parent *Region
	subs   []geometry.IndexSet
	// union lazily caches UnionAll, IsDisjoint, OwnerView and the owner
	// index; shared by Rename views (the subregions are immutable, so all
	// four are too).
	union *unionCache
}

type unionCache struct {
	once         sync.Once
	set          geometry.IndexSet
	disjointOnce sync.Once
	disjoint     bool
	ownerOnce    sync.Once
	owner        *Partition
	indexOnce    sync.Once
	index        *geometry.ColorIndex
}

func newPartition(name string, parent *Region, subs []geometry.IndexSet) *Partition {
	return &Partition{name: name, parent: parent, subs: subs, union: &unionCache{}}
}

// NewPartition wraps explicit subregion index sets into a partition of
// parent. It panics if any subregion escapes the parent's index space —
// PART(P, R) is an invariant of the type, not a runtime property.
func NewPartition(name string, parent *Region, subs []geometry.IndexSet) *Partition {
	space := parent.Space()
	for i, s := range subs {
		if !s.SubsetOf(space) {
			panic(fmt.Sprintf("partition %s: subregion %d escapes region %s", name, i, parent.Name()))
		}
	}
	return newPartition(name, parent, subs)
}

// Name returns the partition's name.
func (p *Partition) Name() string { return p.name }

// Parent returns the partitioned region.
func (p *Partition) Parent() *Region { return p.parent }

// NumSubs returns the number of subregions (the size of the color space).
func (p *Partition) NumSubs() int { return len(p.subs) }

// Sub returns the index set of the ith subregion.
func (p *Partition) Sub(i int) geometry.IndexSet { return p.subs[i] }

// Subs returns all subregion index sets. The caller must not modify the
// returned slice.
func (p *Partition) Subs() []geometry.IndexSet { return p.subs }

// IsDisjoint reports whether the subregions are pairwise disjoint
// (the DISJ predicate), in one sorted sweep over all intervals, computed
// once and cached: every executor node derives owner views from the same
// partitions.
func (p *Partition) IsDisjoint() bool {
	if p.union == nil {
		return geometry.DisjointAll(p.subs)
	}
	p.union.disjointOnce.Do(func() { p.union.disjoint = geometry.DisjointAll(p.subs) })
	return p.union.disjoint
}

// OwnerView derives the owner (valid-instance) distribution from a
// writing partition: the partition itself when already disjoint,
// otherwise its deterministic first-color disjointification, named
// p's name + "_own". Owner maps must assign each element exactly one
// owner — fold routing, ghost need-sets, and the final gather all rely
// on it — while writing partitions may alias (every aliased writer
// computes the same value under snapshot semantics, so the first
// color's copy stands for all). The disjointification is computed once
// and shared by Rename views.
func (p *Partition) OwnerView() *Partition {
	if p.IsDisjoint() {
		return p
	}
	if p.union == nil {
		return Disjointify(p.name+"_own", p)
	}
	p.union.ownerOnce.Do(func() { p.union.owner = Disjointify("", p) })
	return p.union.owner.Rename(p.name + "_own")
}

// IsComplete reports whether the union of subregions covers the parent
// region (the COMP predicate).
func (p *Partition) IsComplete() bool {
	return p.parent.Space().SubsetOf(p.UnionAll())
}

// UnionAll returns the union of all subregions, computed with a single
// k-way merge and cached: the interpreter's membership tests (IfIn over
// a partition space) call this once per element.
func (p *Partition) UnionAll() geometry.IndexSet {
	if p.union == nil {
		// Zero-value or legacy construction: compute without caching.
		return geometry.UnionAll(p.subs)
	}
	p.union.once.Do(func() { p.union.set = geometry.UnionAll(p.subs) })
	return p.union.set
}

// SubsetOf reports whether p[i] ⊆ other[i] for every color i — the subset
// constraint E1 ⊆ E2 of the constraint language. It requires other to
// have at least as many colors as p.
func (p *Partition) SubsetOf(other *Partition) bool {
	if p.parent != other.parent || len(other.subs) < len(p.subs) {
		return false
	}
	for i, s := range p.subs {
		if !s.SubsetOf(other.subs[i]) {
			return false
		}
	}
	return true
}

// SamePartition reports whether the two partitions have identical
// subregions (same parent, same color space, same index sets).
func (p *Partition) SamePartition(other *Partition) bool {
	if p.parent != other.parent || len(p.subs) != len(other.subs) {
		return false
	}
	for i, s := range p.subs {
		if !s.Equal(other.subs[i]) {
			return false
		}
	}
	return true
}

// OwnedPiece is one owner color's share of an index set: the slice of a
// ghost/halo region that a single node holds the valid copy of.
type OwnedPiece = geometry.ColorPiece

// ownerIndex returns the sorted (interval, color) runs of the
// subregions, built once and shared by Rename views.
func (p *Partition) ownerIndex() *geometry.ColorIndex {
	if p.union == nil {
		return geometry.NewColorIndex(p.subs)
	}
	p.union.indexOnce.Do(func() { p.union.index = geometry.NewColorIndex(p.subs) })
	return p.union.index
}

// SplitByOwner splits s along the colors of the owner partition,
// returning the non-empty pieces s ∩ owner.Sub(k) in ascending color
// order; elements of s outside the owner's union appear in no piece. It
// is one merge walk of s against the owner's cached index, so its cost
// follows the intervals the walk touches, not the number of colors, and
// an aliased owner takes the same walk. The cost model predicts its
// per-pair transfer volumes from this split, and each executor node
// splits its own remote sets with it; the executor derives the peers'
// side of every message by Subtract and Intersect, and
// TestCommMatchesSim holds the two derivations equal pair by pair.
func SplitByOwner(s geometry.IndexSet, owner *Partition) []OwnedPiece {
	return owner.ownerIndex().Split(s)
}

// Rename returns a view of the partition under a different name, sharing
// subregion storage (and the cached union and disjointness).
func (p *Partition) Rename(name string) *Partition {
	return &Partition{name: name, parent: p.parent, subs: p.subs, union: p.union}
}

func (p *Partition) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s = partition of %s:", p.name, p.parent.Name())
	for i, s := range p.subs {
		fmt.Fprintf(&sb, "\n  [%d] %s", i, s.String())
	}
	return sb.String()
}

func combine(name string, a, b *Partition, op func(x, y geometry.IndexSet) geometry.IndexSet) *Partition {
	if a.parent != b.parent {
		panic(fmt.Sprintf("partition %s: operands partition different regions (%s, %s)",
			name, a.parent.Name(), b.parent.Name()))
	}
	n := len(a.subs)
	if len(b.subs) != n {
		panic(fmt.Sprintf("partition %s: color space mismatch (%d vs %d)", name, n, len(b.subs)))
	}
	subs := make([]geometry.IndexSet, n)
	par.Do(n, func(i int) {
		subs[i] = op(a.subs[i], b.subs[i])
	})
	return newPartition(name, a.parent, subs)
}

// Union returns the subregion-wise union (E1 ∪ E2)[i] = E1[i] ∪ E2[i].
func Union(name string, a, b *Partition) *Partition {
	return combine(name, a, b, geometry.IndexSet.Union)
}

// Intersect returns the subregion-wise intersection.
func Intersect(name string, a, b *Partition) *Partition {
	return combine(name, a, b, geometry.IndexSet.Intersect)
}

// Subtract returns the subregion-wise difference.
func Subtract(name string, a, b *Partition) *Partition {
	return combine(name, a, b, geometry.IndexSet.Subtract)
}

// Disjointify returns a disjoint partition with the same per-color
// coverage intent: each element goes to the first color containing it.
// Used to derive an owner (valid-instance) distribution from a possibly
// aliased partition.
func Disjointify(name string, p *Partition) *Partition {
	var covered geometry.IndexSet
	subs := make([]geometry.IndexSet, p.NumSubs())
	for i := range subs {
		subs[i] = p.Sub(i).Subtract(covered)
		covered = covered.Union(p.Sub(i))
	}
	return newPartition(name, p.parent, subs)
}

// Equal creates a complete, disjoint partition of r into n subregions of
// (approximately) equal size — the equal DPL operator.
func Equal(name string, r *Region, n int) *Partition {
	if n <= 0 {
		panic(fmt.Sprintf("partition %s: non-positive color count %d", name, n))
	}
	size := r.Size()
	subs := make([]geometry.IndexSet, n)
	chunk := size / int64(n)
	rem := size % int64(n)
	var lo int64
	for i := 0; i < n; i++ {
		hi := lo + chunk
		if int64(i) < rem {
			hi++
		}
		subs[i] = geometry.Range(lo, hi)
		lo = hi
	}
	return newPartition(name, r, subs)
}

// Image creates the partition image(src, f, target)[i] = f(src[i]) ∩
// target — the image DPL operator.
func Image(name string, src *Partition, f geometry.IndexMap, target *Region) *Partition {
	space := target.Space()
	subs := make([]geometry.IndexSet, len(src.subs))
	par.Do(len(src.subs), func(i int) {
		subs[i] = geometry.Image(src.subs[i], f, space)
	})
	return newPartition(name, target, subs)
}

// Preimage creates preimage(domain, f, src)[i] = f⁻¹(src[i]) ∩ domain —
// the preimage DPL operator. A table map is evaluated for every colour
// in one walk of the domain; other maps colour by colour.
func Preimage(name string, domain *Region, f geometry.IndexMap, src *Partition) *Partition {
	space := domain.Space()
	if m, ok := f.(geometry.TableMap); ok {
		return newPartition(name, domain, geometry.PreimageTable(space, m, src.subs))
	}
	subs := make([]geometry.IndexSet, len(src.subs))
	par.Do(len(src.subs), func(i int) {
		subs[i] = geometry.Preimage(space, f, src.subs[i])
	})
	return newPartition(name, domain, subs)
}

// ImageMulti creates IMAGE(src, F, target) for a multi-valued map — the
// generalized image operator of §4.
func ImageMulti(name string, src *Partition, f geometry.MultiMap, target *Region) *Partition {
	space := target.Space()
	subs := make([]geometry.IndexSet, len(src.subs))
	par.Do(len(src.subs), func(i int) {
		subs[i] = geometry.ImageMulti(src.subs[i], f, space)
	})
	return newPartition(name, target, subs)
}

// PreimageMulti creates PREIMAGE(domain, F, src) for a multi-valued map —
// the generalized preimage operator of §4.
func PreimageMulti(name string, domain *Region, f geometry.MultiMap, src *Partition) *Partition {
	space := domain.Space()
	subs := make([]geometry.IndexSet, len(src.subs))
	par.Do(len(src.subs), func(i int) {
		subs[i] = geometry.PreimageMulti(space, f, src.subs[i])
	})
	return newPartition(name, domain, subs)
}
