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
	// eofMsg is a transport-internal sentinel marking one sender's end
	// of stream, so receivers can fail takes from a dead peer instead
	// of deadlocking. Never crosses the wire: a stream reader refuses
	// it, so only the local transport can declare a peer finished.
	eofMsg
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
	case eofMsg:
		return "eof"
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

// windowErr reports a non-empty set that leaves node's window win of the
// named region.
func windowErr(node int, name string, win geometry.Interval, set geometry.IndexSet) error {
	if b, ok := set.Bounds(); ok && (b.Lo < win.Lo || b.Hi > win.Hi) {
		return fmt.Errorf("%w: node %d, region %s, window %s, set %s", errOutsideWindow, node, name, win, set)
	}
	return nil
}

// packField copies node's values of r over set into a fresh payload.
func packField(node int, r *region.Region, field string, set geometry.IndexSet) (msg message, err error) {
	kind, ok := r.FieldKindOf(field)
	if !ok {
		return msg, fmt.Errorf("exec: pack: unknown field %s.%s", r.Name(), field)
	}
	win := r.Window()
	if err := windowErr(node, r.Name(), win, set); err != nil {
		return msg, err
	}
	n := int(set.Len())
	switch kind {
	case region.ScalarField:
		data := r.Scalar(field)
		out := make([]float64, 0, n)
		set.EachInterval(func(iv geometry.Interval) bool {
			out = append(out, data[iv.Lo-win.Lo:iv.Hi-win.Lo]...)
			return true
		})
		msg.scalars = out
	case region.IndexField:
		data := r.Index(field)
		out := make([]int64, 0, n)
		set.EachInterval(func(iv geometry.Interval) bool {
			out = append(out, data[iv.Lo-win.Lo:iv.Hi-win.Lo]...)
			return true
		})
		msg.indexes = out
	case region.RangeField:
		data := r.Ranges(field)
		out := make([]geometry.Interval, 0, n)
		set.EachInterval(func(iv geometry.Interval) bool {
			out = append(out, data[iv.Lo-win.Lo:iv.Hi-win.Lo]...)
			return true
		})
		msg.ranges = out
	}
	msg.set = set
	return msg, nil
}

// installField writes a received payload into node's values of r over
// msg.set.
func installField(node int, r *region.Region, field string, msg *message) error {
	kind, ok := r.FieldKindOf(field)
	if !ok {
		return fmt.Errorf("exec: install: unknown field %s.%s", r.Name(), field)
	}
	win := r.Window()
	if err := windowErr(node, r.Name(), win, msg.set); err != nil {
		return err
	}
	pos := 0
	switch kind {
	case region.ScalarField:
		if msg.scalars == nil {
			return fmt.Errorf("exec: install %s.%s: payload kind mismatch", r.Name(), field)
		}
		data := r.Scalar(field)
		msg.set.EachInterval(func(iv geometry.Interval) bool {
			pos += copy(data[iv.Lo-win.Lo:iv.Hi-win.Lo], msg.scalars[pos:])
			return true
		})
	case region.IndexField:
		if msg.indexes == nil {
			return fmt.Errorf("exec: install %s.%s: payload kind mismatch", r.Name(), field)
		}
		data := r.Index(field)
		msg.set.EachInterval(func(iv geometry.Interval) bool {
			pos += copy(data[iv.Lo-win.Lo:iv.Hi-win.Lo], msg.indexes[pos:])
			return true
		})
	case region.RangeField:
		if msg.ranges == nil {
			return fmt.Errorf("exec: install %s.%s: payload kind mismatch", r.Name(), field)
		}
		data := r.Ranges(field)
		msg.set.EachInterval(func(iv geometry.Interval) bool {
			pos += copy(data[iv.Lo-win.Lo:iv.Hi-win.Lo], msg.ranges[pos:])
			return true
		})
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
