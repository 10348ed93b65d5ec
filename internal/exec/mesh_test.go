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

func nextDelivery(t *testing.T, m *Mesh) message {
	t.Helper()
	select {
	case msg, ok := <-m.Inbox(0):
		if !ok {
			t.Fatal("inbox closed early")
		}
		return msg
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery within 10s")
	}
	panic("unreachable")
}

// TestMeshStreamFramesAreAuthenticated is the regression test for
// frames being trusted to name their own sender: a stream whose hello
// said "node 1" sends a ghost frame stamped from=2 and then a forged
// eof sentinel for node 2. The ghost must be delivered as node 1's, the
// sentinel must end the stream with a named error, and nothing may ever
// be attributed to node 2 (RunNode would mark the wrong peer dead and
// survivors would blame it).
func TestMeshStreamFramesAreAuthenticated(t *testing.T) {
	for _, forged := range []message{
		{kind: eofMsg, from: 2},
		{kind: helloMsg, from: 2},
		{kind: msgKind(99), from: 2},
	} {
		t.Run(forged.kind.String(), func(t *testing.T) {
			m, addr := rogueTarget(t)
			ghost := message{
				kind: ghostMsg, from: 2, step: 1, launch: 2, req: 3, region: "cells", field: "rho",
				set: geometry.FromIntervals(geometry.Interval{Lo: 0, Hi: 2}), scalars: []float64{1, 2},
			}
			rogueStream(t, addr, message{kind: helloMsg, from: 1}, ghost, forged, ghost)

			if got := nextDelivery(t, m); got.kind != ghostMsg || got.from != 1 {
				t.Fatalf("first delivery is %s from node %d, want the ghost attributed to the stream's node 1", got.kind, got.from)
			}
			// The stream ends at the forged frame: node 1's EOF follows, and
			// the ghost behind it is never read.
			if got := nextDelivery(t, m); got.kind != eofMsg || got.from != 1 {
				t.Fatalf("second delivery is %s from node %d, want node 1's end of stream", got.kind, got.from)
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
// error.
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
			if tc.first != nil {
				rogueStream(t, addr, tc.first...)
				if got := nextDelivery(t, m); got.kind != eofMsg || got.from != 1 {
					t.Fatalf("well-behaved stream ended with %s from node %d, want node 1's end of stream", got.kind, got.from)
				}
				if err := m.Err(); err != nil {
					t.Fatalf("well-behaved stream latched %v", err)
				}
			}
			rogueStream(t, addr, message{kind: helloMsg, from: tc.from}, message{kind: ghostMsg, from: 2})
			if got := nextDelivery(t, m); got.kind != eofMsg || got.from != -1 {
				t.Fatalf("delivery is %s from node %d, want an anonymous end of stream", got.kind, got.from)
			}
			if err := m.Err(); !errors.Is(err, errStreamHello) {
				t.Fatalf("Err() = %v, want errStreamHello", err)
			}
		})
	}
}
