// Package region implements logical regions and first-class data
// partitions, the core data model of the paper (and of Regent/Legion,
// which it substitutes for).
//
// A Region is an indexed collection of values; every element has a unique
// int64 index and the same set of named fields. Fields are either scalar
// (float64), index-valued ("pointer" fields such as Particles[·].cell),
// or range-valued (pairs of bounds such as the CSR Ranges region of §4).
//
// A Partition is an indexed family of subregions (index subsets) of a
// parent region. Partitions are first-class: they are named values that
// can be passed around, combined subregion-wise, and tested for the
// disjointness and completeness properties the constraint language
// predicates DISJ and COMP describe.
package region

import (
	"fmt"
	"sort"

	"autopart/internal/geometry"
)

// FieldKind distinguishes the value type stored in a region field.
type FieldKind int

// Field kinds.
const (
	// ScalarField holds float64 data values.
	ScalarField FieldKind = iota
	// IndexField holds int64 indices into another region ("pointer"
	// fields); a negative entry denotes a null pointer.
	IndexField
	// RangeField holds half-open index intervals (data-dependent inner
	// loop bounds, §4).
	RangeField
)

func (k FieldKind) String() string {
	switch k {
	case ScalarField:
		return "scalar"
	case IndexField:
		return "index"
	case RangeField:
		return "range"
	default:
		return fmt.Sprintf("FieldKind(%d)", int(k))
	}
}

// Region is a named, indexed collection of structured values over the
// index space [0, Size). A full region holds every element; a window
// (see CopyWindow) holds only the elements of one subset of it, stored
// densely in ascending order, so that it costs what it holds and not the
// hull of it.
type Region struct {
	name string
	size int64
	// window is the part of [0, size) the field slices hold and where:
	// element k lives at the position window places it at.
	window  *geometry.Layout
	scalars map[string][]float64
	indexes map[string][]int64
	ranges  map[string][]geometry.Interval
}

// New creates a full region with the given name and index space
// [0, size).
func New(name string, size int64) *Region {
	if size < 0 {
		panic(fmt.Sprintf("region %s: negative size %d", name, size))
	}
	return &Region{
		name:    name,
		size:    size,
		window:  geometry.NewLayout(geometry.Range(0, size)),
		scalars: map[string][]float64{},
		indexes: map[string][]int64{},
		ranges:  map[string][]geometry.Interval{},
	}
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Size returns the number of elements in the region.
func (r *Region) Size() int64 { return r.size }

// Space returns the region's index space as a set.
func (r *Region) Space() geometry.IndexSet { return geometry.Range(0, r.size) }

// Window returns the layout of the elements the field slices hold: one
// interval, [0, Size), for a full region, where element k lives at
// position k. Element k of a window lives at the position the layout
// places it at in the slices Scalar, Index and Ranges return.
func (r *Region) Window() *geometry.Layout { return r.window }

// full reports whether r holds every element of its index space.
func (r *Region) full() bool { return r.window.Len() == r.size }

// mustBeFull panics when r is a window: op would index it as if it held
// every element.
func (r *Region) mustBeFull(op string) {
	if !r.full() {
		panic(fmt.Sprintf("region %s: %s of a window %s", r.name, op, r.window.Set()))
	}
}

// AddScalarField adds a float64 field initialized to zero. It panics if a
// field of the name already exists.
func (r *Region) AddScalarField(name string) {
	r.checkFresh(name)
	r.scalars[name] = make([]float64, r.window.Len())
}

// AddIndexField adds an index-valued (pointer) field initialized to null
// (-1). It panics if a field of the name already exists.
func (r *Region) AddIndexField(name string) {
	r.checkFresh(name)
	vals := make([]int64, r.window.Len())
	for i := range vals {
		vals[i] = -1
	}
	r.indexes[name] = vals
}

// AddRangeField adds a range-valued field initialized to empty ranges. It
// panics if a field of the name already exists.
func (r *Region) AddRangeField(name string) {
	r.checkFresh(name)
	r.ranges[name] = make([]geometry.Interval, r.window.Len())
}

func (r *Region) checkFresh(name string) {
	if r.HasField(name) {
		panic(fmt.Sprintf("region %s: duplicate field %s", r.name, name))
	}
}

// HasField reports whether the region has a field of the given name.
func (r *Region) HasField(name string) bool {
	_, s := r.scalars[name]
	_, i := r.indexes[name]
	_, g := r.ranges[name]
	return s || i || g
}

// FieldKindOf returns the kind of the named field; ok is false when the
// field does not exist.
func (r *Region) FieldKindOf(name string) (kind FieldKind, ok bool) {
	if _, found := r.scalars[name]; found {
		return ScalarField, true
	}
	if _, found := r.indexes[name]; found {
		return IndexField, true
	}
	if _, found := r.ranges[name]; found {
		return RangeField, true
	}
	return 0, false
}

// FieldNames returns the region's field names in sorted order.
func (r *Region) FieldNames() []string {
	var names []string
	for n := range r.scalars {
		names = append(names, n)
	}
	for n := range r.indexes {
		names = append(names, n)
	}
	for n := range r.ranges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scalar returns the backing slice of a scalar field over the region's
// window. It panics if the field does not exist or has a different kind.
func (r *Region) Scalar(name string) []float64 {
	vals, ok := r.scalars[name]
	if !ok {
		panic(fmt.Sprintf("region %s: no scalar field %s", r.name, name))
	}
	return vals
}

// Index returns the backing slice of an index field over the region's
// window. It panics if the field does not exist or has a different kind.
func (r *Region) Index(name string) []int64 {
	vals, ok := r.indexes[name]
	if !ok {
		panic(fmt.Sprintf("region %s: no index field %s", r.name, name))
	}
	return vals
}

// Ranges returns the backing slice of a range field over the region's
// window. It panics if the field does not exist or has a different kind.
func (r *Region) Ranges(name string) []geometry.Interval {
	vals, ok := r.ranges[name]
	if !ok {
		panic(fmt.Sprintf("region %s: no range field %s", r.name, name))
	}
	return vals
}

// PointerMap returns the index map k ↦ R[k].field for an index field,
// named "R[·].field" as in the paper's notation. It panics on a window.
func (r *Region) PointerMap(field string) geometry.IndexMap {
	r.mustBeFull("PointerMap")
	return geometry.TableMap{
		Name:  fmt.Sprintf("%s[·].%s", r.name, field),
		Table: r.Index(field),
	}
}

// RangeMap returns the multi-valued map k ↦ R[k].field for a range field.
// It panics on a window.
func (r *Region) RangeMap(field string) geometry.MultiMap {
	r.mustBeFull("RangeMap")
	return geometry.RangeTableMap{
		Name:   fmt.Sprintf("%s[·].%s", r.name, field),
		Ranges: r.Ranges(field),
	}
}

// CloneData returns a deep copy of a full region (same name, size, and
// field contents). Used by differential tests that compare sequential and
// parallel executions of the same program. It panics on a window.
func (r *Region) CloneData() *Region {
	r.mustBeFull("CloneData")
	return r.CopyWindow(r.Space())
}

// CopyWindow returns a region of the same name, size and fields that
// holds a copy of r's data over set only: a distributed node's instance
// of the elements it can touch. It panics unless r holds all of set.
func (r *Region) CopyWindow(set geometry.IndexSet) *Region {
	if !set.SubsetOf(r.window.Set()) {
		panic(fmt.Sprintf("region %s: window %s of a region holding %s", r.name, set, r.window.Set()))
	}
	c := &Region{
		name:    r.name,
		size:    r.size,
		window:  geometry.NewLayout(set),
		scalars: make(map[string][]float64, len(r.scalars)),
		indexes: make(map[string][]int64, len(r.indexes)),
		ranges:  make(map[string][]geometry.Interval, len(r.ranges)),
	}
	for n, v := range r.scalars {
		c.scalars[n], _ = geometry.Gather(v, r.window, set)
	}
	for n, v := range r.indexes {
		c.indexes[n], _ = geometry.Gather(v, r.window, set)
	}
	for n, v := range r.ranges {
		c.ranges[n], _ = geometry.Gather(v, r.window, set)
	}
	return c
}

// SameData reports whether two full regions have identical field
// contents. It returns a description of the first difference for test
// diagnostics, and refuses (reports a difference for) a window.
func (r *Region) SameData(other *Region) (bool, string) {
	for _, x := range []*Region{r, other} {
		if !x.full() {
			return false, fmt.Sprintf("%s holds only the window %s", x.name, x.window.Set())
		}
	}
	if r.size != other.size {
		return false, fmt.Sprintf("size %d vs %d", r.size, other.size)
	}
	for n, v := range r.scalars {
		ov, ok := other.scalars[n]
		if !ok {
			return false, "missing scalar field " + n
		}
		for i := range v {
			if v[i] != ov[i] {
				return false, fmt.Sprintf("%s.%s[%d]: %v vs %v", r.name, n, i, v[i], ov[i])
			}
		}
	}
	for n, v := range r.indexes {
		ov, ok := other.indexes[n]
		if !ok {
			return false, "missing index field " + n
		}
		for i := range v {
			if v[i] != ov[i] {
				return false, fmt.Sprintf("%s.%s[%d]: %v vs %v", r.name, n, i, v[i], ov[i])
			}
		}
	}
	for n, v := range r.ranges {
		ov, ok := other.ranges[n]
		if !ok {
			return false, "missing range field " + n
		}
		for i := range v {
			if v[i] != ov[i] {
				return false, fmt.Sprintf("%s.%s[%d]: %v vs %v", r.name, n, i, v[i], ov[i])
			}
		}
	}
	return true, ""
}
