package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"autopart/internal/geometry"
)

// Wire format: a compact length-prefixed binary encoding of message,
// used by every socket stream. One frame per message:
//
//	u32 payload length (not counting the prefix)
//	u8  kind
//	u32 from, step, launch, req
//	u16 len(region) + bytes, u16 len(field) + bytes
//	u32 interval count, then (i64 lo, i64 hi) per interval
//	u8  payload flags (bit0 scalars, bit1 indexes, bit2 ranges,
//	    bit3 present)
//	per flagged payload: u32 element count, then the data — f64 bits
//	    for scalars, i64 for indexes, (i64, i64) per range, and a
//	    packed bitset (ceil(n/8) bytes) for present
//
// All integers are little-endian. Nothing in the format depends on the
// host; decode validates every length against the remaining frame so
// corrupt or fuzzed input fails with an error instead of a panic or an
// unbounded allocation.
//
// Every layout in this file and progwire.go is declared once, as a
// function over a codec that either appends or consumes: the same
// sequence of primitive calls is the encoder and the decoder, so the
// two cannot drift apart.

// maxWireFrame bounds a frame's declared size (1 GiB): anything larger
// is a corrupt prefix, not a plausible field piece.
const maxWireFrame = 1 << 30

// maxWireDepth bounds statement and scalar-expression nesting: real
// programs are a handful of levels deep, and the limit keeps fuzzed
// inputs from overflowing the decoder's stack.
const maxWireDepth = 200

// codec walks a layout in one of two directions: encoding appends to
// buf, decoding consumes it from pos. Every primitive takes a pointer
// and writes the value out or fills it in. The first failure sticks in
// err and turns every later primitive into a no-op, so layouts read
// straight through without per-field error checks; an encode never
// stores through the pointers it is given.
type codec struct {
	dec   bool
	buf   []byte
	pos   int
	depth int
	err   error
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *codec) failf(format string, args ...any) {
	c.fail(fmt.Errorf("exec: wire: "+format, args...))
}

func (c *codec) remaining() int { return len(c.buf) - c.pos }

// done ends a decode: it returns the sticky error, and input left
// unconsumed is one.
func (c *codec) done(what string) error {
	if c.err == nil && c.remaining() != 0 {
		c.failf("%d trailing bytes after %s", c.remaining(), what)
	}
	return c.err
}

// encoded ends an encode: the bytes, or the sticky error.
func (c *codec) encoded() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// writeTo ends an encode by handing the bytes to w in a single Write.
func (c *codec) writeTo(w io.Writer) error {
	if c.err != nil {
		return c.err
	}
	_, err := w.Write(c.buf)
	return err
}

// span is the one place bytes move: decoding returns the next n input
// bytes (bounds-checked), encoding returns n fresh zeroed output bytes
// for the caller to fill. After an error it returns nil (as it may for
// n = 0, so only fixed-width callers test the result against nil).
func (c *codec) span(n int) []byte {
	if c.err != nil {
		return nil
	}
	if !c.dec {
		c.buf = append(c.buf, make([]byte, n)...)
		return c.buf[len(c.buf)-n:]
	}
	if n < 0 || c.remaining() < n {
		c.failf("truncated frame (want %d bytes, have %d)", n, c.remaining())
		return nil
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b
}

func (c *codec) u8(p *byte) {
	if b := c.span(1); b != nil {
		if c.dec {
			*p = b[0]
		} else {
			b[0] = *p
		}
	}
}

// flag is one byte: any nonzero value decodes as true, true encodes
// as 1.
func (c *codec) flag(p *bool) {
	var b byte
	if *p {
		b = 1
	}
	c.u8(&b)
	if c.dec {
		*p = b != 0
	}
}

// flags packs up to eight booleans into one byte, first argument in
// bit 0. Bits beyond the arguments are ignored on decode.
func (c *codec) flags(ps ...*bool) {
	var b byte
	for i, p := range ps {
		if *p {
			b |= 1 << i
		}
	}
	c.u8(&b)
	if c.dec {
		for i, p := range ps {
			*p = b&(1<<i) != 0
		}
	}
}

// enum stores an int-backed enumeration in one byte, refusing values
// outside [0, max] in either direction.
func enum[E ~int](c *codec, p *E, max E, what string) {
	b := byte(*p)
	if !c.dec && (*p < 0 || *p > max) {
		c.failf("%s %d out of range", what, int(*p))
		return
	}
	if c.u8(&b); !c.dec || c.err != nil {
		return
	}
	if E(b) > max {
		c.failf("unknown %s %d", what, b)
		return
	}
	*p = E(b)
}

// i32 is a 4-byte two's-complement integer held in an int.
func (c *codec) i32(p *int) {
	if b := c.span(4); b != nil {
		if c.dec {
			*p = int(int32(binary.LittleEndian.Uint32(b)))
		} else {
			binary.LittleEndian.PutUint32(b, uint32(*p))
		}
	}
}

func (c *codec) i64(p *int64) {
	if b := c.span(8); b != nil {
		if c.dec {
			*p = int64(binary.LittleEndian.Uint64(b))
		} else {
			binary.LittleEndian.PutUint64(b, uint64(*p))
		}
	}
}

// wide is an 8-byte integer held in an int (counters that may exceed
// 32 bits).
func (c *codec) wide(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		*p = int(v)
	}
}

func (c *codec) f64(p *float64) {
	v := int64(math.Float64bits(*p))
	c.i64(&v)
	if c.dec {
		*p = math.Float64frombits(uint64(v))
	}
}

func (c *codec) iv(p *geometry.Interval) {
	c.i64(&p.Lo)
	c.i64(&p.Hi)
}

// str is a u16 length plus that many bytes.
func (c *codec) str(p *string) {
	n := len(*p)
	if n > math.MaxUint16 {
		c.failf("string of %d bytes too long", n)
		return
	}
	if b := c.span(2); b != nil {
		if c.dec {
			n = int(binary.LittleEndian.Uint16(b))
		} else {
			binary.LittleEndian.PutUint16(b, uint16(n))
		}
	}
	if b := c.span(n); b != nil {
		if c.dec {
			*p = string(b)
		} else {
			copy(b, *p)
		}
	}
}

func (c *codec) strs(ps ...*string) {
	for _, p := range ps {
		c.str(p)
	}
}

// count is a u32 element count. Decoding rejects any count that could
// not fit in the remaining input at elemSize bytes per element — the
// alloc guard: nothing sized by a count is allocated beyond what the
// input itself could hold — and leaves *n untouched on failure.
func (c *codec) count(n *int, elemSize int) {
	if !c.dec && (*n < 0 || int64(*n) > math.MaxUint32) {
		c.failf("count %d does not fit the format", *n)
		return
	}
	b := c.span(4)
	if c.err != nil {
		return
	}
	if !c.dec {
		binary.LittleEndian.PutUint32(b, uint32(*n))
		return
	}
	v := binary.LittleEndian.Uint32(b)
	if int64(v)*int64(elemSize) > int64(c.remaining()) {
		c.failf("count %d exceeds frame remainder %d", v, c.remaining())
		return
	}
	*n = int(v)
}

// list walks a counted sequence: the count, then fn once per element
// until the first error.
func (c *codec) list(n *int, elemSize int, fn func(i int)) {
	c.count(n, elemSize)
	for i := 0; i < *n && c.err == nil; i++ {
		fn(i)
	}
}

// seq is list over a slice: encoding visits the elements in place,
// decoding appends them one by one, so the slice grows only as fast as
// input is consumed (and a zero count leaves it nil).
func seq[T any](c *codec, xs *[]T, elemSize int, elem func(*T)) {
	n := len(*xs)
	c.list(&n, elemSize, func(i int) {
		if !c.dec {
			elem(&(*xs)[i])
			return
		}
		var x T
		if elem(&x); c.err == nil {
			*xs = append(*xs, x)
		}
	})
}

// nest runs fn one nesting level down, failing past maxWireDepth.
func (c *codec) nest(fn func()) {
	if c.depth > maxWireDepth {
		c.failf("nesting exceeds %d levels", maxWireDepth)
		return
	}
	c.depth++
	fn()
	c.depth--
}

// framed wraps fn's layout in a u32 length prefix. Decoding confines fn
// to exactly the declared bytes and rejects any it leaves unread.
func (c *codec) framed(what string, fn func()) {
	if !c.dec {
		at := len(c.buf)
		if c.span(4) == nil {
			return
		}
		fn()
		if n := len(c.buf) - at - 4; n > maxWireFrame {
			c.failf("%s of %d bytes exceeds limit", what, n)
		} else if c.err == nil {
			binary.LittleEndian.PutUint32(c.buf[at:], uint32(n))
		}
		return
	}
	var n int
	c.count(&n, 1)
	outer := c.buf
	c.buf = c.buf[:c.pos+n]
	fn()
	c.done(what)
	c.buf = outer
}

// The bulk payloads keep dedicated tight loops over one span: a single
// bounds check per slice, no per-element call.

func (c *codec) f64vals(xs []float64) {
	b := c.span(8 * len(xs))
	if c.err != nil {
		return
	}
	if c.dec {
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return
	}
	for i, v := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

func (c *codec) i64vals(xs []int64) {
	b := c.span(8 * len(xs))
	if c.err != nil {
		return
	}
	if c.dec {
		for i := range xs {
			xs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return
	}
	for i, v := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
}

func (c *codec) ivvals(xs []geometry.Interval) {
	b := c.span(16 * len(xs))
	if c.err != nil {
		return
	}
	if c.dec {
		for i := range xs {
			xs[i].Lo = int64(binary.LittleEndian.Uint64(b[16*i:]))
			xs[i].Hi = int64(binary.LittleEndian.Uint64(b[16*i+8:]))
		}
		return
	}
	for i, iv := range xs {
		binary.LittleEndian.PutUint64(b[16*i:], uint64(iv.Lo))
		binary.LittleEndian.PutUint64(b[16*i+8:], uint64(iv.Hi))
	}
}

// f64s, i64s and ivs are a count plus that many values. A decoded
// slice is never nil, so "present but empty" survives a round trip.
func (c *codec) f64s(p *[]float64) {
	n := len(*p)
	if c.count(&n, 8); c.dec {
		*p = make([]float64, n)
	}
	c.f64vals(*p)
}

func (c *codec) i64s(p *[]int64) {
	n := len(*p)
	if c.count(&n, 8); c.dec {
		*p = make([]int64, n)
	}
	c.i64vals(*p)
}

func (c *codec) ivs(p *[]geometry.Interval) {
	n := len(*p)
	if c.count(&n, 16); c.dec {
		*p = make([]geometry.Interval, n)
	}
	c.ivvals(*p)
}

// bits is a count plus a packed bitset of ceil(n/8) bytes.
func (c *codec) bits(p *[]bool) {
	n := len(*p)
	c.count(&n, 0)
	b := c.span((n + 7) / 8)
	if c.err != nil {
		return
	}
	if c.dec {
		*p = make([]bool, n)
		for i := range *p {
			(*p)[i] = b[i/8]&(1<<(i%8)) != 0
		}
		return
	}
	for i, v := range *p {
		if v {
			b[i/8] |= 1 << (i % 8)
		}
	}
}

// blob is a u32 length plus raw bytes; decoding copies them out of the
// frame (empty decodes as nil).
func (c *codec) blob(p *[]byte) {
	n := len(*p)
	c.count(&n, 1)
	b := c.span(n)
	if c.err != nil {
		return
	}
	if !c.dec {
		copy(b, *p)
	} else if n > 0 {
		*p = append([]byte(nil), b...)
	}
}

// set is an interval list. Decoding canonicalizes through
// FromIntervals, so fuzzed overlapping or unsorted intervals decode to
// a valid set (tag verification rejects any set the schedule does not
// expect).
func (c *codec) set(p *geometry.IndexSet) {
	ivs := p.Intervals()
	if c.ivs(&ivs); c.dec && c.err == nil {
		*p = geometry.FromIntervals(ivs...)
	}
}

// message is the data-frame body.
func (c *codec) message(m *message) {
	enum(c, &m.kind, math.MaxUint8, "message kind")
	c.i32(&m.from)
	c.i32(&m.step)
	c.i32(&m.launch)
	c.i32(&m.req)
	c.strs(&m.region, &m.field)
	c.set(&m.set)
	// Exactly the payloads whose slice is non-nil travel.
	scalars, indexes, ranges, present := m.scalars != nil, m.indexes != nil, m.ranges != nil, m.present != nil
	c.flags(&scalars, &indexes, &ranges, &present)
	if scalars {
		c.f64s(&m.scalars)
	}
	if indexes {
		c.i64s(&m.indexes)
	}
	if ranges {
		c.ivs(&m.ranges)
	}
	if present {
		c.bits(&m.present)
	}
}

// appendMessage appends m's wire encoding (without the frame prefix).
func appendMessage(buf []byte, m *message) ([]byte, error) {
	c := codec{buf: buf}
	c.message(m)
	return c.encoded()
}

// decodeMessage parses one frame body. It never panics on corrupt
// input and never allocates more than the frame's own size.
func decodeMessage(data []byte) (message, error) {
	var m message
	c := codec{dec: true, buf: data}
	c.message(&m)
	return m, c.done("message")
}

// writeFrame writes one length-prefixed data frame in a single Write.
func writeFrame(w io.Writer, m *message) error {
	var c codec
	c.framed("frame", func() { c.message(m) })
	return c.writeTo(w)
}

// readFrame reads one length-prefixed data frame; io.EOF (clean, at a
// frame boundary) means the peer closed.
func readFrame(r io.Reader) (message, error) {
	body, err := readFrameBody(r)
	if err != nil {
		return message{}, err
	}
	return decodeMessage(body)
}

// frameChunk bounds how far readFrameBody's buffer runs ahead of the
// bytes that have actually arrived.
const frameChunk = 256 << 10

// readFrameBody reads the u32 length prefix every frame (data and
// control) starts with, then the body. The prefix is the peer's claim,
// not a fact: the buffer grows chunk by chunk as bytes arrive, so a
// stream that declares a huge frame and goes quiet costs one chunk, not
// the declared size. io.EOF is returned bare only at a frame boundary.
func readFrameBody(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errors.New("exec: wire: truncated frame prefix")
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n > maxWireFrame {
		return nil, fmt.Errorf("exec: wire: frame of %d bytes exceeds limit", n)
	}
	var body []byte
	for len(body) < n {
		body = slices.Grow(body, min(n-len(body), frameChunk))
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		if body = body[:len(body)+got]; err != nil {
			return nil, fmt.Errorf("exec: wire: truncated frame (%d of %d bytes): %w", len(body), n, err)
		}
	}
	return body, nil
}

// Control plane: the bootstrap and lifecycle frames of a multi-process
// deployment (package exec/cluster). Unlike data frames — which flow
// between workers that already agreed on a protocol during bootstrap —
// every control frame carries an explicit protocol version byte right
// after the length prefix, so a coordinator and worker from different
// builds fail the handshake with a version error instead of
// misinterpreting each other's bytes.
//
//	u32 payload length (not counting the prefix)
//	u8  WireProtoVersion
//	u8  kind
//	u32 node, nodes, steps
//	f64 bytes-per-elem
//	u16 len(text) + bytes
//	u32 address count { u16 len + bytes }
//	u32 blob length + bytes
//
// The same struct serves every kind; unused fields stay zero. Frames
// are small (the program blob is the one large payload) and infrequent,
// so uniformity beats per-kind compactness.

// WireProtoVersion is the cross-process protocol version. Bump it on
// any change to the control frames, the data frames, or the program
// encoding; mismatched peers refuse each other during bootstrap.
const WireProtoVersion = 1

// CtrlKind enumerates the control-plane frame types.
type CtrlKind uint8

// Control frame kinds, in rough bootstrap order.
const (
	// CtrlHello opens the handshake: coordinator → worker it assigns
	// the node id and run shape; worker → coordinator it answers with
	// the worker's data-plane address in Text.
	CtrlHello CtrlKind = iota + 1
	// CtrlTopology broadcasts every worker's data-plane address so the
	// workers can dial each other full-mesh.
	CtrlTopology
	// CtrlProgram carries the serialized program (EncodeProgram) in
	// Blob.
	CtrlProgram
	// CtrlReady reports a worker has decoded the program and built its
	// mesh: all peer streams are up.
	CtrlReady
	// CtrlStart releases the workers into the launch loop.
	CtrlStart
	// CtrlResult returns a worker's EncodeNodeResult blob.
	CtrlResult
	// CtrlAbort tears the run down: coordinator → worker on any peer
	// failure; worker → coordinator when the worker's own run errors.
	// Text carries the reason.
	CtrlAbort
)

func (k CtrlKind) String() string {
	switch k {
	case CtrlHello:
		return "hello"
	case CtrlTopology:
		return "topology"
	case CtrlProgram:
		return "program"
	case CtrlReady:
		return "ready"
	case CtrlStart:
		return "start"
	case CtrlResult:
		return "result"
	case CtrlAbort:
		return "abort"
	default:
		return fmt.Sprintf("CtrlKind(%d)", uint8(k))
	}
}

// Ctrl is one control-plane frame.
type Ctrl struct {
	Kind         CtrlKind
	Node         int
	Nodes        int
	Steps        int
	BytesPerElem float64
	Text         string
	Addrs        []string
	Blob         []byte
}

// ErrWireVersion marks a control frame (or stream preamble) whose
// protocol version byte does not match this build's WireProtoVersion.
var ErrWireVersion = fmt.Errorf("exec: wire: protocol version mismatch")

// version is a protocol version byte: v is what an encode writes, and
// a decode refuses anything but want.
func (c *codec) version(v, want uint8, mismatch error) {
	if c.u8(&v); c.dec && c.err == nil && v != want {
		c.fail(fmt.Errorf("%w: peer speaks version %d, this build speaks %d", mismatch, v, want))
	}
}

// ctrl is the control-frame body under the given version byte.
func (c *codec) ctrl(version uint8, k *Ctrl) {
	c.version(version, WireProtoVersion, ErrWireVersion)
	c.u8((*byte)(&k.Kind))
	if c.dec && c.err == nil && (k.Kind < CtrlHello || k.Kind > CtrlAbort) {
		c.failf("unknown ctrl kind %d", k.Kind)
	}
	c.i32(&k.Node)
	c.i32(&k.Nodes)
	c.i32(&k.Steps)
	c.f64(&k.BytesPerElem)
	c.str(&k.Text)
	seq(c, &k.Addrs, 2, c.str)
	c.blob(&k.Blob)
}

// AppendCtrl appends c's frame body under an explicit version byte.
// Exported tests use a foreign version to exercise rejection; real
// senders pass WireProtoVersion.
func AppendCtrl(buf []byte, version uint8, k *Ctrl) ([]byte, error) {
	c := codec{buf: buf}
	c.ctrl(version, k)
	return c.encoded()
}

// WriteCtrl writes one length-prefixed control frame and flushes it to
// w in a single Write (control conns have one writer at a time, so the
// frame lands atomically enough for interleaved readers).
func WriteCtrl(w io.Writer, k *Ctrl) error {
	return writeCtrlVersion(w, WireProtoVersion, k)
}

// writeCtrlVersion is WriteCtrl with an explicit version byte; tests
// use it to present a foreign protocol version.
func writeCtrlVersion(w io.Writer, version uint8, k *Ctrl) error {
	var c codec
	c.framed("ctrl frame", func() { c.ctrl(version, k) })
	return c.writeTo(w)
}

// ReadCtrl reads one length-prefixed control frame. io.EOF (clean, at a
// frame boundary) means the peer closed the control conn. Corrupt input
// errors out; it never panics and never over-allocates.
func ReadCtrl(r io.Reader) (Ctrl, error) {
	var k Ctrl
	body, err := readFrameBody(r)
	if err != nil {
		return k, err
	}
	c := codec{dec: true, buf: body}
	c.ctrl(WireProtoVersion, &k)
	return k, c.done("ctrl frame")
}
