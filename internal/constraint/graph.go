package constraint

import (
	"fmt"
	"sort"
	"strings"

	"autopart/internal/dpl"
)

// labels interns region and function-symbol names as dense int32 ids,
// in a table of its own so graph labels never consume partition-symbol
// ids. Graph matching compares labels by id — two int32 compares
// replace two string compares on the hottest loop of CommonSubgraphs.
var labels dpl.Names

// Predicate-signature bits (Graph.sig): a node's signature records which
// DISJ/COMP predicates constrain it. The bitmask replaces the former
// "D"/"C"/"DC" concatenated string — it is order-insensitive, so a system
// listing COMP before DISJ gets the same signature as one listing DISJ
// before COMP (the strings "CD" and "DC" compared unequal).
const (
	sigDisj uint8 = 1 << iota
	sigComp
)

// Edge is one edge of a constraint graph in its printable form: an
// unlabeled edge From→To encodes From ⊆ To; an edge labeled with a
// function symbol encodes image(From, Func, R) ⊆ To (Fig. 9). Multi
// marks generalized IMAGE edges. Internally the graph stores edges as
// interned ids (rawEdge/csrEdge); Edge is materialized for rendering and
// tests only.
type Edge struct {
	From, To string
	Func     string // "" for plain subset edges
	Multi    bool
}

func (e Edge) String() string {
	if e.Func == "" {
		return fmt.Sprintf("%s → %s", e.From, e.To)
	}
	op := "image"
	if e.Multi {
		op = "IMAGE"
	}
	return fmt.Sprintf("%s →[%s %s] %s", e.From, op, e.Func, e.To)
}

// rawEdge is an edge in system (Subsets) order with interned symbol-id
// endpoints; the canonical edge storage, independent of node numbering.
type rawEdge struct {
	from, to int32 // dpl.SymID of the endpoints
	fn       int32 // interned function label id; -1 for plain subset edges
	multi    bool
}

// csrEdge is one adjacency entry: raw edges grouped by From node into a
// flat array (CSR layout), with the target as a node index so the
// matching loops read regions and signatures by direct indexing.
type csrEdge struct {
	to    int32 // node index in the owning graph
	fn    int32 // interned function label id; -1 for plain subset edges
	multi bool
}

// Graph is the constraint-graph view of a system: nodes are partition
// symbols (tagged with their regions), edges are the two subset-
// constraint forms the inference algorithm generates. Subset constraints
// of other shapes (e.g. involving external expressions) are not
// represented and therefore never unified away.
//
// The representation is fully interned: nodes are dense indexes into
// sorted-name order, regions and edge labels are interned label ids, the
// predicate signature is a 2-bit mask, and adjacency is a flat CSR
// array. Matching (CommonSubgraphs) runs entirely on int32 compares —
// no string hashing, no map iteration.
type Graph struct {
	names  []string // node names, sorted; the node handle is the index
	ids    []int32  // dpl.SymID per node, aligned with names
	region []int32  // interned region label id per node; -1 when none
	sig    []uint8  // sigDisj|sigComp bits per node

	// nodeOf maps dpl.SymID to node index (-1 when absent), dense over
	// the symbol ids the graph has seen.
	nodeOf []int32
	// byRegion lists node indexes per region id, ascending — the
	// candidate buckets of CommonSubgraphs' pair scan.
	byRegion map[int32][]int32

	raw   []rawEdge // edges in system (Subsets) order
	csr   []csrEdge // raw edges grouped by From node, raw order within
	start []int32   // len(names)+1 CSR offsets into csr

	// nPreds/nSubsets record how many conjuncts of the source system are
	// folded in; Extended grows the graph from that watermark.
	nPreds, nSubsets int
}

// BuildGraph constructs the constraint graph of a system.
func BuildGraph(sys *System) *Graph {
	return extendGraph(nil, sys, 0, 0)
}

// Covers reports whether the graph already folds in exactly the
// conjuncts of sys (by count; callers maintain the prefix invariant).
func (g *Graph) Covers(sys *System) bool {
	return g.nPreds == len(sys.Preds) && g.nSubsets == len(sys.Subsets)
}

// CanExtend reports whether sys has at least as many conjuncts as the
// graph folds in. Together with the caller-maintained invariant that
// sys's first nPreds/nSubsets conjuncts equal the ones the graph was
// built from, this makes Extended sound.
func (g *Graph) CanExtend(sys *System) bool {
	return g.nPreds <= len(sys.Preds) && g.nSubsets <= len(sys.Subsets)
}

// Extended returns the graph of sys, reusing this graph's node and edge
// tables and folding in only the conjuncts past its watermark. The
// receiver must have been built from a system whose Preds/Subsets are a
// prefix of sys's (content-wise) — the accumulated systems of
// Algorithm 3 grow by appending, so the solver maintains that invariant
// by construction and its tests assert it on every served graph. The
// receiver is not mutated; when sys adds nothing, the receiver itself is
// returned.
func (g *Graph) Extended(sys *System) *Graph {
	if !g.CanExtend(sys) {
		return BuildGraph(sys)
	}
	if g.Covers(sys) {
		return g
	}
	return extendGraph(g, sys, g.nPreds, g.nSubsets)
}

// extendGraph builds the graph of sys, either from scratch (base == nil)
// or by folding sys.Preds[fromPred:] and sys.Subsets[fromSub:] into a
// copy of base's tables. One pass over the delta, O(nodes+edges) table
// rebuilds, and a sort over only the *new* node names — no per-round
// re-sort of the full symbol set.
func extendGraph(base *Graph, sys *System, fromPred, fromSub int) *Graph {
	g := &Graph{nPreds: len(sys.Preds), nSubsets: len(sys.Subsets)}

	// Collect the delta's symbols (interned free-variable lists: no
	// traversal, no string hashing beyond first sight).
	var newNames []string
	var newIDs []int32
	maxID := int32(-1)
	if base != nil {
		maxID = int32(len(base.nodeOf)) - 1
	}
	seen := map[int32]bool{}
	note := func(fvs []string, ids []int32) {
		for i, id := range ids {
			if id > maxID {
				maxID = id
			}
			if base != nil && int(id) < len(base.nodeOf) && base.nodeOf[id] >= 0 {
				continue
			}
			if !seen[id] {
				seen[id] = true
				newNames = append(newNames, fvs[i])
				newIDs = append(newIDs, id)
			}
		}
	}
	for _, p := range sys.Preds[fromPred:] {
		_, fvs, ids := dpl.FvInfo(p.E)
		note(fvs, ids)
	}
	for _, c := range sys.Subsets[fromSub:] {
		_, fvs, ids := dpl.FvInfo(c.L)
		note(fvs, ids)
		_, fvs, ids = dpl.FvInfo(c.R)
		note(fvs, ids)
	}

	// Merge the (sorted) new names into the base node tables, remapping
	// base node indexes as they shift.
	ord := make([]int, len(newNames))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool { return newNames[ord[i]] < newNames[ord[j]] })
	nOld := 0
	if base != nil {
		nOld = len(base.names)
	}
	n := nOld + len(newNames)
	g.names = make([]string, 0, n)
	g.ids = make([]int32, 0, n)
	g.region = make([]int32, 0, n)
	g.sig = make([]uint8, 0, n)
	bi, ni := 0, 0
	for bi < nOld || ni < len(ord) {
		takeNew := bi >= nOld
		if !takeNew && ni < len(ord) {
			takeNew = newNames[ord[ni]] < base.names[bi]
		}
		if takeNew {
			k := ord[ni]
			g.names = append(g.names, newNames[k])
			g.ids = append(g.ids, newIDs[k])
			g.region = append(g.region, -1)
			g.sig = append(g.sig, 0)
			ni++
		} else {
			g.names = append(g.names, base.names[bi])
			g.ids = append(g.ids, base.ids[bi])
			g.region = append(g.region, base.region[bi])
			g.sig = append(g.sig, base.sig[bi])
			bi++
		}
	}
	g.nodeOf = make([]int32, maxID+1)
	for i := range g.nodeOf {
		g.nodeOf[i] = -1
	}
	for i, id := range g.ids {
		g.nodeOf[id] = int32(i)
	}

	// Fold in the delta predicates: regions from PART (later predicates
	// win, as in the former map build), signature bits from DISJ/COMP.
	for _, p := range sys.Preds[fromPred:] {
		v, ok := p.E.(dpl.Var)
		if !ok {
			continue
		}
		node := g.nodeOf[dpl.SymID(v.Name)]
		switch p.Kind {
		case Part:
			g.region[node] = labels.ID(p.Region)
		case Disj:
			g.sig[node] |= sigDisj
		case Comp:
			g.sig[node] |= sigComp
		}
	}

	// Append the delta edges, then rebuild the CSR index (counting sort
	// over node indexes keeps raw order within each From bucket).
	if base != nil {
		g.raw = append(make([]rawEdge, 0, len(base.raw)+len(sys.Subsets)-fromSub), base.raw...)
	}
	for _, c := range sys.Subsets[fromSub:] {
		to, ok := c.R.(dpl.Var)
		if !ok {
			continue
		}
		switch l := c.L.(type) {
		case dpl.Var:
			g.raw = append(g.raw, rawEdge{from: dpl.SymID(l.Name), to: dpl.SymID(to.Name), fn: -1})
		case dpl.ImageExpr:
			if from, ok := l.Of.(dpl.Var); ok {
				g.raw = append(g.raw, rawEdge{from: dpl.SymID(from.Name), to: dpl.SymID(to.Name), fn: labels.ID(l.Func)})
			}
		case dpl.ImageMultiExpr:
			if from, ok := l.Of.(dpl.Var); ok {
				g.raw = append(g.raw, rawEdge{from: dpl.SymID(from.Name), to: dpl.SymID(to.Name), fn: labels.ID(l.Func), multi: true})
			}
		}
	}
	g.start = make([]int32, n+1)
	for _, e := range g.raw {
		g.start[g.nodeOf[e.from]+1]++
	}
	for i := 0; i < n; i++ {
		g.start[i+1] += g.start[i]
	}
	g.csr = make([]csrEdge, len(g.raw))
	fill := append([]int32(nil), g.start[:n]...)
	for _, e := range g.raw {
		f := g.nodeOf[e.from]
		g.csr[fill[f]] = csrEdge{to: g.nodeOf[e.to], fn: e.fn, multi: e.multi}
		fill[f]++
	}

	g.byRegion = make(map[int32][]int32)
	for i, r := range g.region {
		if r >= 0 {
			g.byRegion[r] = append(g.byRegion[r], int32(i))
		}
	}
	return g
}

// out returns the CSR adjacency slice of a node.
func (g *Graph) out(node int32) []csrEdge {
	return g.csr[g.start[node]:g.start[node+1]]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.raw) }

// NodeNames returns the node names in node order (sorted). The slice is
// a copy.
func (g *Graph) NodeNames() []string {
	return append([]string(nil), g.names...)
}

// RegionName returns the region of a node ("" when the node has no PART
// predicate or is absent).
func (g *Graph) RegionName(node string) string {
	i := sort.SearchStrings(g.names, node)
	if i >= len(g.names) || g.names[i] != node || g.region[i] < 0 {
		return ""
	}
	return labels.Name(g.region[i])
}

// edgeOf materializes one raw edge in printable form.
func (g *Graph) edgeOf(e rawEdge) Edge {
	out := Edge{From: dpl.SymName(e.from), To: dpl.SymName(e.to), Multi: e.multi}
	if e.fn >= 0 {
		out.Func = labels.Name(e.fn)
	}
	return out
}

// Edges materializes every edge in system order, for rendering and
// tests; the matching loops never touch this form.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.raw))
	for i, e := range g.raw {
		out[i] = g.edgeOf(e)
	}
	return out
}

// OutEdges returns the edges leaving a node, in system order.
func (g *Graph) OutEdges(node string) []Edge {
	i := sort.SearchStrings(g.names, node)
	if i >= len(g.names) || g.names[i] != node {
		return nil
	}
	var out []Edge
	for _, e := range g.out(int32(i)) {
		oe := Edge{From: node, To: g.names[e.to], Multi: e.multi}
		if e.fn >= 0 {
			oe.Func = labels.Name(e.fn)
		}
		out = append(out, oe)
	}
	return out
}

func (g *Graph) String() string {
	var sb strings.Builder
	for i, e := range g.raw {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(g.edgeOf(e).String())
	}
	return sb.String()
}

// Fingerprint returns a 128-bit structural fingerprint of the graph's
// semantic content — node names with regions and signatures (in node
// order) and edges (in system order, by endpoint names and label). Two
// graphs of the same system fingerprint identically regardless of how
// they were built (BuildGraph vs Extended); the solver's
// accumulated-graph check (checkGraphCache) relies on exactly that.
func (g *Graph) Fingerprint() [2]uint64 {
	var h [2]uint64
	fold := func(p [2]uint64) {
		h[0] = mix64(h[0] ^ p[0])
		h[1] = mix64(h[1] + p[1])
	}
	for i, name := range g.names {
		fold(dpl.HashString128(name))
		if g.region[i] >= 0 {
			fold(dpl.HashString128(labels.Name(g.region[i])))
		}
		fold([2]uint64{uint64(g.sig[i]) + 1, uint64(g.sig[i]) + 3})
	}
	for _, e := range g.raw {
		fold(dpl.HashString128(dpl.SymName(e.from)))
		fold(dpl.HashString128(dpl.SymName(e.to)))
		if e.fn >= 0 {
			fold(dpl.HashString128(labels.Name(e.fn)))
		}
		m := uint64(5)
		if e.multi {
			m = 7
		}
		fold([2]uint64{m, m})
	}
	return h
}

// Mapping is a candidate unification: pairs of symbols to be equated,
// keyed by the symbol from the second graph.
type Mapping map[string]string

// rawMapping is one grown candidate before Mapping materialization:
// (a-node, b-node) index pairs in growth order plus the count of
// signature mismatches used as the sort tiebreak.
type rawMapping struct {
	pairs      [][2]int32
	mismatches int
}

// materialize converts a rawMapping into the caller-facing name-keyed
// Mapping.
func (r rawMapping) materialize(a, b *Graph) Mapping {
	mp := make(Mapping, len(r.pairs))
	for _, p := range r.pairs {
		mp[b.names[p[1]]] = a.names[p[0]]
	}
	return mp
}

// mapSet is an open-addressed set of 128-bit mapping hashes, used for
// duplicate elimination. The built-in map spent measurable time hashing
// the [2]uint64 keys through the runtime; here a probe is two word
// compares.
type mapSet struct {
	keys [][2]uint64
	occ  []bool
	mask uint64
}

func newMapSet(n int) *mapSet {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return &mapSet{
		keys: make([][2]uint64, size),
		occ:  make([]bool, size),
		mask: uint64(size - 1),
	}
}

// insert adds h and reports whether it was absent.
func (s *mapSet) insert(h [2]uint64) bool {
	for i := (h[0] ^ h[1]) & s.mask; ; i = (i + 1) & s.mask {
		if !s.occ[i] {
			s.occ[i] = true
			s.keys[i] = h
			return true
		}
		if s.keys[i] == h {
			return false
		}
	}
}

// CommonSubgraphs enumerates candidate unifications between the symbols
// of two constraint (sub)systems, largest first. A candidate maps nodes
// of b onto nodes of a such that regions match and every mapped edge of b
// has an identically-labeled counterpart in a. This is the product-graph
// construction the paper describes (§3.2); we enumerate maximal greedy
// matches rather than solving maximum-common-subgraph exactly.
//
// The enumeration is deterministic by construction: seed pairs are
// generated in (b-node, a-node) sorted-name order with exact-signature
// pairs first, and each seed grows through an insertion-ordered worklist
// (see grow). Seeds that would equate a symbol with itself are skipped —
// identity renames are discarded by the solver anyway (filterCand), so
// they only cost dedup work.
func CommonSubgraphs(a, b *Graph) []Mapping {
	raw := commonSubgraphsRaw(a, b)
	out := make([]Mapping, len(raw))
	for i, r := range raw {
		out[i] = r.materialize(a, b)
	}
	return out
}

// EachCommonSubgraph visits the same candidates in the same order as
// CommonSubgraphs but materializes each name-keyed Mapping only when
// reached; yield returning false stops the walk. The solver's greedy
// loop usually commits one of the first few candidates, so the (string-
// keyed map) materialization cost of the long tail is never paid.
func EachCommonSubgraph(a, b *Graph, yield func(Mapping) bool) {
	for _, r := range commonSubgraphsRaw(a, b) {
		if !yield(r.materialize(a, b)) {
			return
		}
	}
}

func commonSubgraphsRaw(a, b *Graph) []rawMapping {
	type pair struct{ an, bn int32 }
	var pairs []pair
	for exact := 0; exact < 2; exact++ {
		for bn := 0; bn < len(b.names); bn++ {
			rid := b.region[bn]
			if rid < 0 {
				continue
			}
			for _, an := range a.byRegion[rid] {
				if a.ids[an] == b.ids[bn] {
					continue // identity seed: nothing to unify
				}
				match := a.sig[an] == b.sig[bn]
				if (exact == 0) == match {
					pairs = append(pairs, pair{an, int32(bn)})
				}
			}
		}
	}

	// Grow a mapping greedily from each seed pair. The scratch state is
	// index-addressed and reset via the worklist (every mapped b-node is
	// on it exactly once), so a seed costs O(grown mapping), not
	// O(graph).
	m := make([]int32, len(b.names))
	for i := range m {
		m[i] = -1
	}
	used := make([]bool, len(a.names))
	var wl []int32

	var results []rawMapping
	seen := newMapSet(len(pairs))
	for _, seed := range pairs {
		for _, bn := range wl {
			used[m[bn]] = false
			m[bn] = -1
		}
		wl = wl[:0]
		m[seed.bn] = seed.an
		used[seed.an] = true
		wl = grow(a, b, m, used, append(wl, seed.bn))

		// Duplicate elimination: a commutative sum of whitened per-pair
		// id hashes (mappings are equal as pair sets). Same 128-bit
		// collision policy as the solver memo.
		var h [2]uint64
		mm := 0
		for _, bn := range wl {
			an := m[bn]
			key := uint64(uint32(a.ids[an]))<<32 | uint64(uint32(b.ids[bn]))
			h[0] += mix64(key + 0x9e3779b97f4a7c15)
			h[1] += mix64(key ^ 0x6a09e667f3bcc909)
			if a.sig[an] != b.sig[bn] {
				mm++
			}
		}
		if !seen.insert(h) {
			continue
		}
		ps := make([][2]int32, len(wl))
		for i, bn := range wl {
			ps[i] = [2]int32{m[bn], bn}
		}
		results = append(results, rawMapping{pairs: ps, mismatches: mm})
	}

	sort.SliceStable(results, func(i, j int) bool {
		if len(results[i].pairs) != len(results[j].pairs) {
			return len(results[i].pairs) > len(results[j].pairs)
		}
		return results[i].mismatches < results[j].mismatches
	})
	return results
}

// grow expands a seeded mapping: each mapped b-node's outgoing edges are
// matched against its a-image's outgoing edges (same label, same
// multiplicity, target regions equal), preferring a target with the same
// predicate signature and falling back to the first structurally
// compatible one. The worklist is processed in insertion order (breadth-
// first from the seed) and each b-node exactly once, which defines the
// growth order completely: when two b-nodes compete for the same a-node,
// the one discovered first wins. (The former implementation ranged over
// the mapping map while inserting into it, so that winner depended on
// Go's randomized map iteration order.) A single pass suffices: the
// mapped and used sets only grow, so an edge that finds no counterpart
// now never finds one later.
func grow(a, b *Graph, m []int32, used []bool, wl []int32) []int32 {
	for qi := 0; qi < len(wl); qi++ {
		bn := wl[qi]
		an := m[bn]
		for _, be := range b.out(bn) {
			if m[be.to] >= 0 {
				continue
			}
			fallback := int32(-1)
			found := false
			for _, ae := range a.out(an) {
				if used[ae.to] || ae.fn != be.fn || ae.multi != be.multi {
					continue
				}
				if a.region[ae.to] != b.region[be.to] {
					continue
				}
				if a.sig[ae.to] == b.sig[be.to] {
					m[be.to] = ae.to
					used[ae.to] = true
					wl = append(wl, be.to)
					found = true
					break
				}
				if fallback < 0 {
					fallback = ae.to
				}
			}
			if !found && fallback >= 0 {
				m[be.to] = fallback
				used[fallback] = true
				wl = append(wl, be.to)
			}
		}
	}
	return wl
}
