package exec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/sim"
)

func wireMessages() []message {
	set := geometry.FromIntervals(geometry.Interval{Lo: 3, Hi: 8}, geometry.Interval{Lo: 12, Hi: 15})
	return []message{
		{kind: helloMsg, from: 7},
		{
			kind: ghostMsg, from: 1, step: 2, launch: 3, req: 4,
			region: "cells", field: "rho", set: set,
			scalars: []float64{1.5, -2, 0, math.Inf(1), math.NaN(), 6, 7, 8},
		},
		{
			kind: ghostMsg, from: 0, step: 0, launch: 1, req: 0,
			region: "wires", field: "in", set: geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 3}),
			indexes: []int64{-1, 42, 1 << 40},
		},
		{
			kind: shipMsg, from: 2, step: 1, launch: 0, req: 2,
			region: "zones", field: "span",
			set:    geometry.FromIntervals(geometry.Interval{Lo: 5, Hi: 7}),
			ranges: []geometry.Interval{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 9}},
		},
		{
			kind: mergeMsg, from: 3, step: 4, launch: 5, req: 6,
			region: "nodes", field: "charge",
			set:     geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 9}),
			scalars: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9},
			present: []bool{true, false, true, true, false, false, true, false, true},
		},
		{kind: mergeMsg, set: geometry.IndexSet{}, scalars: []float64{}, present: []bool{}},
	}
}

// scalarsEqual compares payloads bit for bit: the wire format moves
// float bits verbatim, so NaNs (which == and reflect.DeepEqual both
// reject against themselves) must survive exactly.
func scalarsEqual(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func messagesEqual(a, b *message) bool {
	return a.kind == b.kind && a.from == b.from && a.step == b.step &&
		a.launch == b.launch && a.req == b.req &&
		a.region == b.region && a.field == b.field &&
		a.set.Equal(b.set) &&
		scalarsEqual(a.scalars, b.scalars) &&
		reflect.DeepEqual(a.indexes, b.indexes) &&
		reflect.DeepEqual(a.ranges, b.ranges) &&
		reflect.DeepEqual(a.present, b.present)
}

func TestWireRoundTrip(t *testing.T) {
	for i, m := range wireMessages() {
		buf, err := appendMessage(nil, &m)
		if err != nil {
			t.Fatalf("message %d: encode: %v", i, err)
		}
		got, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !messagesEqual(&m, &got) {
			t.Errorf("message %d: round trip diverged:\n sent %+v\n got  %+v", i, m, got)
		}
	}
}

// TestWireFrameRoundTrip streams every test message through the framed
// reader/writer pair and expects a clean io.EOF at the end — the signal
// the TCP read loop uses for an orderly close.
func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	msgs := wireMessages()
	for i := range msgs {
		if err := writeFrame(w, &msgs[i]); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for i := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if !messagesEqual(&msgs[i], &got) {
			t.Errorf("frame %d diverged:\n sent %+v\n got  %+v", i, msgs[i], got)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Errorf("want io.EOF after last frame, got %v", err)
	}
}

// TestWireDecodeRejectsCorruptInput feeds decode hostile frames: every
// one must return an error — never panic, never allocate beyond the
// frame's own size.
func TestWireDecodeRejectsCorruptInput(t *testing.T) {
	m := wireMessages()[1]
	valid, err := appendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"kind only":      valid[:1],
		"truncated body": valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0xff),
		// u32 interval count of ~4e9 directly after the header: the alloc
		// guard must reject it against the empty remainder.
		"huge count": append(append([]byte{}, valid[:22]...), 0xff, 0xff, 0xff, 0xff),
	}
	for name, data := range cases {
		if _, err := decodeMessage(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))); err == nil {
		t.Error("readFrame accepted an oversized frame prefix")
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{8, 0, 0, 0, 1, 2}))); err == nil {
		t.Error("readFrame accepted a truncated frame")
	}
}

// FuzzDecodeMessage hammers the decoder with mutated frames. For any
// input, decode must not panic; when it succeeds, the decoded message
// must re-encode and decode to a fixed point (the canonical form).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range wireMessages() {
		buf, err := appendMessage(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			return
		}
		buf, err := appendMessage(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to encode: %v", err)
		}
		again, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !messagesEqual(&m, &again) {
			t.Errorf("canonical round trip diverged:\n first  %+v\n second %+v", m, again)
		}
	})
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWireGoldenBytes pins the wire format byte for byte: the digests
// were computed at the commit that introduced WireProtoVersion 1's
// layouts, so any codec change that moves a byte fails here instead of
// against a peer from another build. A deliberate format change bumps
// WireProtoVersion and recomputes them.
func TestWireGoldenBytes(t *testing.T) {
	var msgs []byte
	for i, m := range wireMessages() {
		var err error
		if msgs, err = appendMessage(msgs, &m); err != nil {
			t.Fatalf("message %d: encode: %v", i, err)
		}
	}
	nr := &NodeResult{
		ID: 2,
		Stats: [][]sim.NodeStats{
			{{ComputeUnits: 1.5, BufferElems: 2, BytesIn: 4096, BytesOut: 8192, MsgsIn: 3, MsgsOut: 4, FragsIn: 5, FragsOut: 6}, {}},
			{{ComputeUnits: math.Inf(1), MsgsIn: -1}, {BytesOut: 0.25, FragsOut: 1 << 40}},
		},
		Times: [][]NodeTiming{
			{{WallNS: 1000, ComputeNS: 800, OverlapNS: 30}, {}},
			{{WallNS: -7}, {ComputeNS: 1 << 50}},
		},
		final: wireMessages()[1:5],
	}
	result, err := EncodeNodeResult(nr)
	if err != nil {
		t.Fatalf("node result: encode: %v", err)
	}
	ctrl, err := AppendCtrl(nil, WireProtoVersion, &Ctrl{
		Kind: CtrlProgram, Node: 3, Nodes: 8, Steps: 5, BytesPerElem: 8.5,
		Text: "127.0.0.1:4242", Addrs: []string{"a:1", "", "host.example:65535"},
		Blob: []byte{0, 1, 2, 0xff},
	})
	if err != nil {
		t.Fatalf("ctrl: encode: %v", err)
	}
	for _, g := range []struct {
		name string
		got  []byte
		size int
		want string
	}{
		{"messages", msgs, 493, "bf5e112d175301cefbdf6aff6d715f8e27f95c639c95f60549e230d73767d00f"},
		{"node result", result, 822, "6ecca87c600624530c454a4f5ad2bd1491879cfb675ca4bc0b04b4ac3612be33"},
		{"ctrl", ctrl, 77, "c5e42209da02bea7578e425d72df9a7ce2dc4b4c5bf3231619120db6663890b5"},
	} {
		if len(g.got) != g.size || digest(g.got) != g.want {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", g.name, len(g.got), digest(g.got), g.size, g.want)
		}
	}
}

// TestFrameLengthIsNotPreallocated is the regression test for trusting
// the length prefix: a peer that declares a maximum-size frame and then
// goes away must cost the reader one bounded chunk, not the gigabyte it
// claimed — on both the data-frame and the control-frame path (a
// worker's control listener reads its first frame from whoever
// connects).
func TestFrameLengthIsNotPreallocated(t *testing.T) {
	claim := binary.LittleEndian.AppendUint32(nil, maxWireFrame)
	readers := map[string]func(io.Reader) error{
		"readFrame": func(r io.Reader) error { _, err := readFrame(bufio.NewReader(r)); return err },
		"ReadCtrl":  func(r io.Reader) error { _, err := ReadCtrl(r); return err },
	}
	for name, read := range readers {
		for _, sent := range []int{0, 100} {
			input := append(append([]byte{}, claim...), make([]byte, sent)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read(bytes.NewReader(input))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: accepted a 1 GiB frame of which %d bytes arrived", name, sent)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
				t.Errorf("%s: allocated %d bytes for a 1 GiB claim of which %d bytes arrived, want < 2 MiB", name, grew, sent)
			}
		}
	}
}

// TestWireDepthLimit pins the nesting bound as a property of the codec
// itself: maxWireDepth+1 levels pass in both directions, one more is
// refused in both — an encoder cannot produce what a decoder would
// reject.
func TestWireDepthLimit(t *testing.T) {
	nested := func(levels int) (ir.ScalarExpr, []byte) {
		var e ir.ScalarExpr = ir.Const{V: 1}
		blob := append([]byte{exprConst}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))...)
		for i := 1; i < levels; i++ {
			e = ir.CallExpr{Func: "f", Args: []ir.ScalarExpr{e}}
			blob = append([]byte{exprCall, 1, 0, 'f', 1, 0, 0, 0}, blob...)
		}
		return e, blob
	}
	for _, tc := range []struct {
		levels int
		ok     bool
	}{{maxWireDepth + 1, true}, {maxWireDepth + 2, false}} {
		e, blob := nested(tc.levels)
		var enc codec
		enc.expr(&e)
		if got, err := enc.encoded(); (err == nil) != tc.ok {
			t.Errorf("encode of %d levels: err = %v", tc.levels, err)
		} else if tc.ok && !bytes.Equal(got, blob) {
			t.Errorf("encode of %d levels does not match the hand-written bytes", tc.levels)
		}
		var got ir.ScalarExpr
		dec := codec{dec: true, buf: blob}
		dec.expr(&got)
		if err := dec.done("expression"); (err == nil) != tc.ok {
			t.Errorf("decode of %d levels: err = %v", tc.levels, err)
		} else if tc.ok && !reflect.DeepEqual(got, e) {
			t.Errorf("decode of %d levels diverged from the encoded expression", tc.levels)
		}
	}
}
