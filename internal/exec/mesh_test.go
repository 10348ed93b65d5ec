package exec

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"autopart/internal/geometry"
)

// rogueTarget builds node 0's mesh of a 3-node run whose two peers are
// bare listeners that swallow whatever node 0 sends, leaving node 0's
// own listener free for the test to connect hand-written streams to.
func rogueTarget(t *testing.T) (m *Mesh, addr string) {
	t.Helper()
	const nodes = 3
	peers := make([]string, nodes)
	var own net.Listener
	for j := 0; j < nodes; j++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[j] = ln.Addr().String()
		if j == 0 {
			own = ln
			continue
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					io.Copy(io.Discard, conn)
					conn.Close()
				}()
			}
		}()
	}
	m, err := NewMesh(MeshConfig{Self: 0, Nodes: nodes, Listener: own, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Abort()
		m.CloseSend(0)
		m.Close()
	})
	return m, peers[0]
}

// rogueStream connects to addr and plays a stream by hand: the version
// byte, then the given frames verbatim, then a clean close.
func rogueStream(t *testing.T, addr string, frames ...message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	w.WriteByte(WireProtoVersion)
	for i := range frames {
		if err := writeFrame(w, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// waitEnd waits for an end mark of node 0's mailbox to close.
func waitEnd(t *testing.T, c chan struct{}, what string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s not marked within 10s", what)
	}
}

// noneFrom2 fails if anything in node 0's mailbox is attributed to node
// 2: a delivery, or its end of stream.
func noneFrom2(t *testing.T, mb *mailbox) {
	t.Helper()
	if closed(mb.ends.gone[2]) {
		t.Fatal("node 2's stream was marked ended")
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for k := range mb.arrived {
		if k.from == 2 {
			t.Fatalf("delivery %s attributed to node 2", k)
		}
	}
}

// TestMeshStreamFramesAreAuthenticated is the regression test for
// frames being trusted to name their own sender: a stream whose hello
// said "node 1" sends a ghost frame stamped from=2 and then a forged
// frame for node 2 that may not follow a preamble — kind 4 (the end of
// stream sentinel of earlier protocol builds), a second hello, or an
// unknown kind. The ghost must be delivered as node 1's, the forged
// frame must end node 1's stream with a named error, and nothing may
// ever be attributed to node 2 (survivors would blame the wrong peer).
func TestMeshStreamFramesAreAuthenticated(t *testing.T) {
	for _, forged := range []struct {
		name string
		kind msgKind
	}{{"eof", msgKind(4)}, {"hello", helloMsg}, {"msgKind(99)", msgKind(99)}} {
		t.Run(forged.name, func(t *testing.T) {
			m, addr := rogueTarget(t)
			ghost := message{
				kind: ghostMsg, from: 2, step: 1, launch: 2, req: 3, region: "cells", field: "rho",
				set: geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 2}), scalars: []float64{1, 2},
			}
			rogueStream(t, addr, message{kind: helloMsg, from: 1}, ghost, message{kind: forged.kind, from: 2}, ghost)

			mb := m.Mailbox(0)
			// The stream ends at the forged frame: node 1's end is marked
			// after its ghost, and the ghost behind the forged frame is
			// never read.
			waitEnd(t, mb.ends.gone[1], "node 1's end of stream")
			k := keyOf(&ghost)
			k.from = 1
			if got, err := mb.take(k); err != nil || got.from != 1 {
				t.Fatalf("take of the ghost as node 1's: from %d, %v", got.from, err)
			}
			if err := mb.leftoverErr(); err != nil {
				t.Fatalf("after the ghost: %v", err)
			}
			noneFrom2(t, mb)
			if closed(mb.ends.lost) {
				t.Fatal("the stream ended anonymously, want node 1's end")
			}
			if err := m.Err(); !errors.Is(err, errStreamFrame) {
				t.Fatalf("Err() = %v, want errStreamFrame", err)
			}
		})
	}
}

// TestMeshStreamHelloIsValidated: a hello may only name one of this
// node's peers, once. Anything else ends the stream anonymously (the
// claimed identity is exactly what cannot be trusted) with a named
// error, and nothing the stream sent is delivered.
func TestMeshStreamHelloIsValidated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first []message // an earlier, well-behaved stream
		from  int
	}{
		{"out of range", nil, 7},
		{"negative", nil, -1},
		{"self", nil, 0},
		{"repeated", []message{{kind: helloMsg, from: 1}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, addr := rogueTarget(t)
			mb := m.Mailbox(0)
			if tc.first != nil {
				rogueStream(t, addr, tc.first...)
				waitEnd(t, mb.ends.gone[1], "the well-behaved stream's end")
				if closed(mb.ends.lost) {
					t.Fatal("the well-behaved stream ended anonymously")
				}
				if err := m.Err(); err != nil {
					t.Fatalf("well-behaved stream latched %v", err)
				}
			}
			rogueStream(t, addr, message{kind: helloMsg, from: tc.from}, message{kind: ghostMsg, from: 2})
			waitEnd(t, mb.ends.lost, "an anonymous end of stream")
			if err := mb.leftoverErr(); err != nil {
				t.Fatalf("the refused stream delivered: %v", err)
			}
			noneFrom2(t, mb)
			if err := m.Err(); !errors.Is(err, errStreamHello) {
				t.Fatalf("Err() = %v, want errStreamHello", err)
			}
		})
	}
}
