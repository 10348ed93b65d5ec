package exec

import (
	"errors"
	"fmt"

	"autopart/internal/geometry"
	"autopart/internal/region"
	"autopart/internal/rewrite"
)

// msgKind distinguishes the three transfers of the coherence protocol.
type msgKind int

const (
	// ghostMsg carries valid data from an owner into a reader's ghost
	// cells before a launch.
	ghostMsg msgKind = iota
	// shipMsg writes a §5.1 guarded reduction's remote-owned results back
	// to their owners after a launch.
	shipMsg
	// mergeMsg moves a reduction buffer's remote-owned contributions to
	// their owners for the ordered fold.
	mergeMsg
	// helloMsg is a socket stream's preamble (mesh.go): the first frame
	// on each connection, identifying the sender. Never delivered to a
	// node, and refused anywhere but first.
	helloMsg
)

func (k msgKind) String() string {
	switch k {
	case ghostMsg:
		return "ghost"
	case shipMsg:
		return "ship"
	case mergeMsg:
		return "merge"
	case helloMsg:
		return "hello"
	default:
		return fmt.Sprintf("msgKind(%d)", int(k))
	}
}

// message is one piece of one field moving between a node pair. The
// element set is carried redundantly (the receiver derives the same set
// from replicated metadata) so protocol mismatches surface as loud
// errors instead of silent data corruption.
type message struct {
	kind          msgKind
	from          int // sender color, stamped by the transport (a stream reader stamps its hello's)
	step, launch  int
	req           int
	region, field string
	set           geometry.IndexSet
	// Payload, one slot per element of set in ascending index order;
	// exactly one slice is non-nil, matching the field's kind.
	scalars []float64
	indexes []int64
	ranges  []geometry.Interval
	// present marks which slots of a mergeMsg carry a real contribution
	// (reduction buffers are sparse; the wire format is the dense
	// instance copy the cost model prices).
	present []bool
}

// errOutsideWindow marks a set that reaches outside a node's window of
// its region: elements the node holds no copy of.
var errOutsideWindow = errors.New("exec: set outside the node's window")

// windowErr returns the error for a set with an element outside node's
// window win of the named region.
func windowErr(node int, name string, win, set geometry.IndexSet) error {
	return fmt.Errorf("%w: node %d, region %s, window %s, set %s", errOutsideWindow, node, name, win, set)
}

// packField copies node's values of r over set into a fresh payload.
func packField(node int, r *region.Region, field string, set geometry.IndexSet) (msg message, err error) {
	kind, ok := r.FieldKindOf(field)
	if !ok {
		return msg, fmt.Errorf("exec: pack: unknown field %s.%s", r.Name(), field)
	}
	win := r.Window()
	switch kind {
	case region.ScalarField:
		msg.scalars, ok = geometry.Gather(r.Scalar(field), win, set)
	case region.IndexField:
		msg.indexes, ok = geometry.Gather(r.Index(field), win, set)
	case region.RangeField:
		msg.ranges, ok = geometry.Gather(r.Ranges(field), win, set)
	}
	if !ok {
		return message{}, windowErr(node, r.Name(), win.Set(), set)
	}
	msg.set = set
	return msg, nil
}

// installField writes a received payload into node's values of r over
// msg.set. A set the window misses fails with the out-of-window error,
// possibly after writing the intervals before the first it misses: the
// run is lost anyway.
func installField(node int, r *region.Region, field string, msg *message) error {
	kind, ok := r.FieldKindOf(field)
	if !ok {
		return fmt.Errorf("exec: install: unknown field %s.%s", r.Name(), field)
	}
	win := r.Window()
	switch {
	case kind == region.ScalarField && msg.scalars != nil:
		ok = geometry.Scatter(r.Scalar(field), win, msg.set, msg.scalars)
	case kind == region.IndexField && msg.indexes != nil:
		ok = geometry.Scatter(r.Index(field), win, msg.set, msg.indexes)
	case kind == region.RangeField && msg.ranges != nil:
		ok = geometry.Scatter(r.Ranges(field), win, msg.set, msg.ranges)
	default:
		return fmt.Errorf("exec: install %s.%s: payload kind mismatch", r.Name(), field)
	}
	if !ok {
		return windowErr(node, r.Name(), win.Set(), msg.set)
	}
	return nil
}

// packBuffer copies a shard's reduction buffer (nil: no contributions)
// over set into the dense wire format: one slot per element, present
// marking real contributions.
func packBuffer(buf *rewrite.ReduceBuffer, set geometry.IndexSet) (scalars []float64, present []bool) {
	n := int(set.Len())
	scalars = make([]float64, n)
	present = make([]bool, n)
	if buf == nil {
		return scalars, present
	}
	pos := 0
	set.EachInterval(func(iv geometry.Interval) bool {
		for k := iv.Lo; k < iv.Hi; k++ {
			scalars[pos], present[pos] = buf.Get(k)
			pos++
		}
		return true
	})
	return scalars, present
}
