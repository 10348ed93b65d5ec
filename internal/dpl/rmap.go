package dpl

import (
	"maps"
	"sync"
	"sync/atomic"
)

// rmap is a read-mostly concurrent map behind every intern table: the
// expression table's constructor maps, the symbol table and the
// constraint graph's label table. Its zero value is empty and ready.
//
// Published entries live in an immutable read map loaded with one
// atomic pointer load and no lock. A first sight goes into the
// mutex-guarded dirty map; the first writer wins. A lookup of a dirty
// entry takes the lock, and once such lookups reach the map's size the
// dirty entries are published in a fresh read map. Each copy of the
// read map is then paid for by as many locked lookups, so inserts and
// lookups are O(1) amortized and an insert never copies the table.
type rmap[K comparable, V any] struct {
	read   atomic.Pointer[rmapRead[K, V]]
	mu     sync.Mutex
	dirty  map[K]V // entries not yet in read
	locked int     // lookups of dirty entries since the last publish
}

// rmapRead is one published read map; it is never written after
// publication.
type rmapRead[K comparable, V any] struct{ m map[K]V }

// published returns the read map; nil, which reads as empty, before
// the first publish.
func (m *rmap[K, V]) published() map[K]V {
	if r := m.read.Load(); r != nil {
		return r.m
	}
	return nil
}

// load looks k up in the published read map without taking the lock.
// It is small enough to inline; on a miss, callers go on to loadSlow.
func (m *rmap[K, V]) load(k K) (V, bool) {
	v, ok := m.published()[k]
	return v, ok
}

// loadSlow looks k up under the lock. A dirty hit is counted, and when
// the count reaches the map's size the dirty entries are published.
func (m *rmap[K, V]) loadSlow(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.published()[k]; ok { // published since the caller's load
		return v, true
	}
	v, ok := m.dirty[k]
	if ok {
		if m.locked++; m.locked >= len(m.published())+len(m.dirty) {
			m.publishLocked()
		}
	}
	return v, ok
}

// loadOrStore returns the value already stored under k, or stores v
// and returns it. stored reports which.
func (m *rmap[K, V]) loadOrStore(k K, v V) (actual V, stored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.published()[k]; ok {
		return prior, false
	}
	if prior, ok := m.dirty[k]; ok {
		return prior, false
	}
	if m.dirty == nil {
		m.dirty = map[K]V{}
	}
	m.dirty[k] = v
	return v, true
}

// publishLocked moves the dirty entries into a fresh read map.
func (m *rmap[K, V]) publishLocked() {
	read := m.published()
	next := make(map[K]V, len(read)+len(m.dirty))
	maps.Copy(next, read)
	maps.Copy(next, m.dirty)
	m.read.Store(&rmapRead[K, V]{m: next})
	m.dirty, m.locked = nil, 0
}

// reset empties the map.
func (m *rmap[K, V]) reset() {
	m.mu.Lock()
	m.read.Store(nil)
	m.dirty, m.locked = nil, 0
	m.mu.Unlock()
}

// Names is a dense name table: every distinct name gets the next int32
// id (0, 1, 2, ... in first-sight order), and the id resolves back to
// the name. Its zero value is empty and ready; it is safe for
// concurrent use. Ids are stable for the table's lifetime but depend on
// first-sight order, so they never appear in output.
type Names struct {
	ids   rmap[string, int32]
	mu    sync.Mutex // serializes writers only
	names atomic.Pointer[[]string]
}

// ID returns name's id, assigning the next one on first sight.
func (n *Names) ID(name string) int32 {
	if id, ok := n.ids.load(name); ok {
		return id
	}
	return n.idSlow(name)
}

func (n *Names) idSlow(name string) int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id, ok := n.ids.loadSlow(name); ok {
		return id
	}
	var names []string
	if p := n.names.Load(); p != nil {
		names = *p
	}
	id := int32(len(names))
	// Appending in place is safe: readers index only below the length
	// they loaded, and the id is published after the longer slice.
	names = append(names, name)
	n.names.Store(&names)
	n.ids.loadOrStore(name, id)
	return id
}

// Name returns the name behind an id this table assigned.
func (n *Names) Name(id int32) string { return (*n.names.Load())[id] }

// reset forgets every name; ids restart from 0.
func (n *Names) reset() {
	n.mu.Lock()
	n.names.Store(nil)
	n.ids.reset()
	n.mu.Unlock()
}
