package exec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Mesh is the package's one socket stream implementation: one node's
// slice of the full-mesh data plane — n-1 inbound streams accepted on
// the node's listener and n-1 outbound streams dialed to its peers. A
// worker process of a multi-process run holds the single Mesh for its
// node (the coordinator's topology frame announces the peer addresses);
// the loopback tcp transport holds all n in one process. Streams carry
// wire.go's data frames behind a preamble of one protocol version byte
// plus a hello frame naming the sender, so a peer from a different
// build is refused at stream setup rather than misparsed mid-run, and
// every later frame is attributed to the node its stream's hello named
// — never to what the frame itself claims.
//
// Send keeps the executor's never-blocks contract by pushing onto an
// elastic queue per peer, drained by a flush-before-blocking writer.
// Each inbound stream's reader puts its frames straight into the node's
// mailbox and marks its sender's end when the stream ends. Failures
// latch into Err; Abort hard-closes every stream so a node blocked in a
// mailbox take fails fast instead of waiting out a dead peer.
type Mesh struct {
	self  int
	nodes int
	mb    *mailbox
	// sends[to] feeds the peer's writer goroutine (nil for self).
	sends []*queue
	hook  func(to, step, launch int)

	mu      sync.Mutex
	err     error
	ln      net.Listener
	conns   []net.Conn
	seen    []bool // senders whose hello an inbound stream has claimed
	aborted bool
	wg      sync.WaitGroup // writer + reader + accept goroutines
}

// MeshConfig configures one node's slice of the mesh.
type MeshConfig struct {
	// Self is this process's node id (color).
	Self int
	// Nodes is the run's node count.
	Nodes int
	// Listener accepts the n-1 inbound peer streams; the Mesh takes
	// ownership and closes it.
	Listener net.Listener
	// Peers holds every node's data address, indexed by node id
	// (Peers[Self] is ignored).
	Peers []string
	// DialBudget bounds each outbound dial including retries (default
	// 10s). Peers build their meshes concurrently, so early dials may
	// find nobody listening yet; retry with backoff covers the window.
	DialBudget time.Duration
	// SendHook, when non-nil, observes every outgoing message (its
	// destination, step, and launch) before it is enqueued. The failure
	// drills use it to kill a worker mid-launch at a deterministic
	// protocol point.
	SendHook func(to, step, launch int)
}

// NewMesh builds one node's mesh: it starts accepting inbound peer
// streams and dials every peer. It returns once all n-1 outbound
// streams are established (inbound streams finish handshaking in the
// background; a peer that never arrives surfaces as that sender's EOF).
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("exec: mesh: node id %d out of range [0, %d)", cfg.Self, cfg.Nodes)
	}
	if len(cfg.Peers) != cfg.Nodes {
		return nil, fmt.Errorf("exec: mesh: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("exec: mesh: nil listener")
	}
	budget := cfg.DialBudget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	m := &Mesh{
		self:  cfg.Self,
		nodes: cfg.Nodes,
		mb:    newMailbox(newEnds(cfg.Nodes, cfg.Nodes-1)),
		sends: make([]*queue, cfg.Nodes),
		hook:  cfg.SendHook,
		ln:    cfg.Listener,
		seen:  make([]bool, cfg.Nodes),
	}

	// Accept n-1 inbound streams; each starts a reader that puts frames
	// into the mailbox (the preamble identifies the sender, so accept
	// order is irrelevant).
	for i := 0; i < cfg.Nodes-1; i++ {
		m.wg.Add(1)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for i := 0; i < cfg.Nodes-1; i++ {
			conn, err := cfg.Listener.Accept()
			if err != nil {
				m.fail(fmt.Errorf("exec: mesh: accept at node %d: %w", cfg.Self, err))
				for ; i < cfg.Nodes-1; i++ {
					m.mb.ends.end(-1)
					m.wg.Done()
				}
				return
			}
			m.track(conn)
			go m.readLoop(conn)
		}
		cfg.Listener.Close()
	}()

	// Dial every peer and start its writer.
	for to := 0; to < cfg.Nodes; to++ {
		if to == cfg.Self {
			continue
		}
		conn, err := DialRetry(cfg.Peers[to], budget)
		if err != nil {
			m.Abort()
			m.CloseSend(m.self) // releases the writers already started
			return nil, fmt.Errorf("exec: mesh: dial node %d (%s): %w", to, cfg.Peers[to], err)
		}
		m.track(conn)
		m.sends[to] = newQueue(1)
		m.wg.Add(1)
		go m.writeLoop(conn, m.sends[to])
	}
	return m, nil
}

// DialRetry dials addr over TCP until it succeeds or the budget is
// spent, backing off between attempts: peers bootstrap concurrently and
// a just-spawned worker may not be listening yet, so the first attempts
// may race a listener that is not up. The mesh's data plane and the
// cluster's control plane both dial through it.
func DialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 10 * time.Millisecond
	for {
		attempt := time.Until(deadline)
		if attempt <= 0 {
			return nil, fmt.Errorf("dial budget of %v exhausted", budget)
		}
		if attempt > time.Second {
			attempt = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

func (m *Mesh) track(conn net.Conn) {
	m.mu.Lock()
	if m.aborted {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.conns = append(m.conns, conn)
	m.mu.Unlock()
}

func (m *Mesh) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// Err reports the first stream or decode failure, if any. An abort
// surfaces as such a failure on every stream it tore down.
func (m *Mesh) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Abort hard-closes the listener and every stream. Readers fail and
// mark their senders' ends, so a node blocked in a mailbox take errors
// out promptly; writers drain to /dev/null. Safe to call from any
// goroutine, more than once.
func (m *Mesh) Abort() {
	m.mu.Lock()
	if m.aborted {
		m.mu.Unlock()
		return
	}
	m.aborted = true
	if m.err == nil {
		m.err = fmt.Errorf("exec: mesh: node %d aborted", m.self)
	}
	ln, cs := m.ln, m.conns
	m.conns = nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range cs {
		c.Close()
	}
}

// Close waits for the stream goroutines and releases every socket. Call
// after RunNode returns; Abort first if the run is being torn down.
func (m *Mesh) Close() error {
	m.wg.Wait()
	m.mu.Lock()
	ln, cs := m.ln, m.conns
	m.ln, m.conns = nil, nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	return nil
}

// Stream violations, wrapped with the details by readLoop.
var (
	errStreamHello = errors.New("exec: mesh: bad stream hello")
	errStreamFrame = errors.New("exec: mesh: illegal frame on stream")
)

// writeLoop drains one outbound queue onto its socket behind the version
// byte + hello preamble. It flushes exactly when the queue is empty,
// before blocking: the peer this stream serves may be the very node our
// sender blocks on, and bytes stuck here would close that cycle. On
// completion it half-closes so the peer's reader sees a clean end of
// stream.
func (m *Mesh) writeLoop(conn net.Conn, out *queue) {
	defer m.wg.Done()
	w := bufio.NewWriter(conn)
	err := w.WriteByte(WireProtoVersion)
	if err == nil {
		err = writeFrame(w, &message{kind: helloMsg, from: m.self})
	}
	for {
		batch, open := out.take()
		for i := range batch {
			if err == nil { // after an error, keep draining so memory is released
				err = writeFrame(w, &batch[i])
			}
		}
		if len(batch) > 0 {
			continue
		}
		if err == nil {
			err = w.Flush()
		}
		if !open {
			break
		}
		out.wait()
	}
	if err != nil {
		m.fail(fmt.Errorf("exec: mesh: send from node %d: %w", m.self, err))
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		conn.Close()
	}
}

// claim records that an inbound stream's hello named sender from,
// refusing ids no peer of this node can have: out of range, this node
// itself, or one another stream already claimed.
func (m *Mesh) claim(from int) error {
	if from < 0 || from >= m.nodes || from == m.self {
		return fmt.Errorf("%w: node %d: sender id %d is not one of this node's %d peers", errStreamHello, m.self, from, m.nodes-1)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[from] {
		return fmt.Errorf("%w: node %d: a second stream claims to be node %d", errStreamHello, m.self, from)
	}
	m.seen[from] = true
	return nil
}

// readLoop verifies one inbound stream's preamble, then decodes frames
// into the mailbox until EOF, and marks the sender's end. Only the three
// coherence-protocol kinds may follow the preamble, and each is stamped
// with the sender the hello established, so a stream can neither speak
// for another node nor end another node's stream. A stream that dies
// before a valid hello ends anonymously (from = -1).
func (m *Mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	from := -1
	defer func() { m.mb.ends.end(from) }()
	r := bufio.NewReader(conn)
	v, err := r.ReadByte()
	if err != nil {
		m.fail(fmt.Errorf("exec: mesh: node %d: stream preamble: %w", m.self, err))
		return
	}
	if v != WireProtoVersion {
		m.fail(fmt.Errorf("%w: node %d: peer stream speaks version %d, this build speaks %d",
			ErrWireVersion, m.self, v, WireProtoVersion))
		return
	}
	hello, err := readFrame(r)
	if err != nil || hello.kind != helloMsg {
		m.fail(fmt.Errorf("%w: node %d: (err=%v, kind=%v)", errStreamHello, m.self, err, hello.kind))
		return
	}
	if err := m.claim(hello.from); err != nil {
		m.fail(err)
		return
	}
	from = hello.from
	for {
		msg, err := readFrame(r)
		if err != nil {
			if err != io.EOF {
				m.fail(fmt.Errorf("exec: mesh: recv at node %d from %d: %w", m.self, from, err))
			}
			return
		}
		if k := msg.kind; k != ghostMsg && k != shipMsg && k != mergeMsg {
			m.fail(fmt.Errorf("%w: node %d: %s frame from node %d after the preamble", errStreamFrame, m.self, msg.kind, from))
			return
		}
		msg.from = from
		m.mb.put(msg)
	}
}

// Send implements Transport for the mesh's own node.
func (m *Mesh) Send(from, to int, msg message) {
	if m.hook != nil {
		m.hook(to, msg.step, msg.launch)
	}
	msg.from = from
	m.sends[to].push(msg)
}

// Mailbox implements Transport; only the mesh's own node has one.
func (m *Mesh) Mailbox(to int) *mailbox {
	if to != m.self {
		panic(fmt.Sprintf("exec: mesh: node %d asked for node %d's mailbox", m.self, to))
	}
	return m.mb
}

// CloseSend marks the outbound queues done; writers drain, flush, and
// half-close their sockets.
func (m *Mesh) CloseSend(from int) {
	for _, q := range m.sends {
		if q != nil {
			q.done()
		}
	}
}

// tcpTransport runs the coherence protocol over real sockets on
// loopback: all n nodes' meshes in one process, each on its own
// listener, so every message crosses wire framing and a kernel socket
// exactly as it does between worker processes. It only routes each
// call to the mesh of the node it concerns.
type tcpTransport struct {
	meshes []*Mesh
}

// TCPTransport returns the factory for the loopback TCP transport.
// Note the connection count is quadratic in nodes: fine for the
// correctness matrix and modest runs, not for 256-node sweeps (use
// inproc there; the wire cost model is identical).
func TCPTransport() TransportFactory {
	return func(nodes int) (Transport, error) {
		t := &tcpTransport{}
		listeners := make([]net.Listener, nodes)
		peers := make([]string, nodes)
		// fail releases whatever was set up. A mesh also closes the
		// listener it was given; closing one twice is harmless.
		fail := func(err error) (Transport, error) {
			for _, ln := range listeners {
				if ln != nil {
					ln.Close()
				}
			}
			for _, m := range t.meshes {
				m.Abort()
				m.CloseSend(m.self)
			}
			t.Close()
			return nil, err
		}
		for j := range listeners {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("exec: tcp: listen: %w", err))
			}
			listeners[j], peers[j] = ln, ln.Addr().String()
		}
		// Every listener is already bound, so each mesh's dials complete
		// against the kernel's accept backlog even though the peer's mesh
		// (and its accept loop) is built later in this loop.
		for j := range listeners {
			m, err := NewMesh(MeshConfig{Self: j, Nodes: nodes, Listener: listeners[j], Peers: peers})
			if err != nil {
				return fail(err)
			}
			t.meshes = append(t.meshes, m)
		}
		return t, nil
	}
}

func (t *tcpTransport) Send(from, to int, msg message) { t.meshes[from].Send(from, to, msg) }

func (t *tcpTransport) Mailbox(to int) *mailbox { return t.meshes[to].Mailbox(to) }

func (t *tcpTransport) CloseSend(from int) { t.meshes[from].CloseSend(from) }

// Err reports the first stream or decode failure on any node's mesh.
func (t *tcpTransport) Err() error {
	for _, m := range t.meshes {
		if err := m.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close waits for every mesh's stream goroutines, then releases its
// sockets. Run calls it after every mailbox has drained.
func (t *tcpTransport) Close() error {
	for _, m := range t.meshes {
		m.Close()
	}
	return nil
}
