package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"autopart/internal/exec"
)

// WorkerOptions configures one worker's run of the bootstrap protocol.
type WorkerOptions struct {
	// HandshakeTimeout bounds each bootstrap frame read (default 30s —
	// the coordinator may be compiling or spawning siblings between
	// frames).
	HandshakeTimeout time.Duration
	// DialBudget bounds each data-plane peer dial (default 10s).
	DialBudget time.Duration
	// CrashAtLaunch, when non-nil, crashes this worker the first time
	// its node sends a step-0 message for that launch index — a
	// deterministic mid-run death for the failure drills. The crash is
	// CrashFn, or an abrupt connection teardown when CrashFn is nil
	// (cmd/node installs os.Exit so the process genuinely dies). A
	// pointer so the zero value is unambiguously "never crash".
	CrashAtLaunch *int
	// CrashFn overrides how CrashAtLaunch crashes (nil = drop the
	// control connection and abort the mesh without reporting).
	CrashFn func()
	// Logf, when non-nil, receives progress lines (cmd/node wires it to
	// stderr).
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 30 * time.Second
	}
	return o
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// WorkerMain is the whole life of a worker process: listen on
// listenAddr (host:port, port 0 for ephemeral), print the announce line
// on stdout, serve exactly one run, and return. cmd/node is a thin
// wrapper over it.
func WorkerMain(listenAddr string, stdout io.Writer, opts WorkerOptions) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("cluster: worker: listen %s: %w", listenAddr, err)
	}
	fmt.Fprintf(stdout, "%s%s\n", AnnouncePrefix, ln.Addr())
	return ServeWorker(ln, opts)
}

// ServeWorker accepts one coordinator connection on ln, runs the
// bootstrap protocol and the node it assigns, reports the result (or an
// abort frame naming the failure), and returns once the coordinator is
// done with the connection. It owns ln and closes it.
func ServeWorker(ln net.Listener, opts WorkerOptions) error {
	opts = opts.withDefaults()
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	}
	conn, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("cluster: worker: accept coordinator: %w", err)
	}
	ln.Close()
	defer conn.Close()
	return serveConn(conn, opts)
}

func serveConn(conn net.Conn, opts WorkerOptions) error {
	br := &ctrlReader{conn: conn, r: newBufReader(conn)}

	// refuse reports a bootstrap failure to the coordinator (so it can
	// name this worker's reason rather than just a dead connection) and
	// returns the error for the caller.
	refuse := func(err error) error {
		wc := &exec.Ctrl{Kind: exec.CtrlAbort, Text: err.Error()}
		writeCtrlTimeout(conn, wc, opts.HandshakeTimeout)
		return err
	}

	// Hello: identity and run shape.
	hello, err := br.readCtrl(opts.HandshakeTimeout)
	if err != nil {
		return fmt.Errorf("cluster: worker: read hello: %w", err)
	}
	if hello.Kind != exec.CtrlHello {
		return refuse(fmt.Errorf("cluster: worker: expected hello, got %v", hello.Kind))
	}
	if hello.Nodes < 1 || hello.Node < 0 || hello.Node >= hello.Nodes {
		return refuse(fmt.Errorf("cluster: worker: bad identity: node %d of %d", hello.Node, hello.Nodes))
	}
	id := hello.Node
	cfg := exec.Config{Nodes: hello.Nodes, Steps: hello.Steps, BytesPerElem: hello.BytesPerElem}
	opts.logf("node %d/%d: hello (steps=%d)", id, cfg.Nodes, cfg.Steps)

	// Data-plane listener on the same interface the coordinator reached
	// us by, so the advertised address works across hosts.
	dataLn, err := net.Listen("tcp", net.JoinHostPort(localHost(conn), "0"))
	if err != nil {
		return refuse(fmt.Errorf("cluster: worker %d: data listener: %w", id, err))
	}
	closeDataLn := true
	defer func() {
		if closeDataLn {
			dataLn.Close()
		}
	}()
	reply := &exec.Ctrl{Kind: exec.CtrlHello, Node: id, Text: dataLn.Addr().String()}
	if err := writeCtrlTimeout(conn, reply, opts.HandshakeTimeout); err != nil {
		return fmt.Errorf("cluster: worker %d: send hello reply: %w", id, err)
	}

	// Topology, then the program blob.
	topo, err := br.readCtrl(opts.HandshakeTimeout)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: read topology: %w", id, err)
	}
	if topo.Kind != exec.CtrlTopology || len(topo.Addrs) != cfg.Nodes {
		return refuse(fmt.Errorf("cluster: worker %d: bad topology frame (kind=%v, %d addrs for %d nodes)",
			id, topo.Kind, len(topo.Addrs), cfg.Nodes))
	}
	progFrame, err := br.readCtrl(opts.HandshakeTimeout)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: read program: %w", id, err)
	}
	if progFrame.Kind != exec.CtrlProgram {
		return refuse(fmt.Errorf("cluster: worker %d: expected program frame, got %v", id, progFrame.Kind))
	}
	prog, err := exec.DecodeProgram(progFrame.Blob)
	if err != nil {
		return refuse(fmt.Errorf("cluster: worker %d: decode program: %w", id, err))
	}
	opts.logf("node %d: program received (%d bytes), building mesh", id, len(progFrame.Blob))

	// Build the data plane: accept peers on dataLn, dial everyone else.
	var (
		meshMu sync.Mutex
		mesh   *exec.Mesh
	)
	var crashOnce sync.Once
	var hook func(to, step, launch int)
	if opts.CrashAtLaunch != nil {
		crashLaunch := *opts.CrashAtLaunch
		hook = func(to, step, launch int) {
			if step == 0 && launch == crashLaunch {
				crashOnce.Do(func() {
					if opts.CrashFn != nil {
						opts.CrashFn()
						return
					}
					// Abrupt death without a report: the control
					// connection drops and the mesh streams slam shut,
					// exactly what a crashed process looks like.
					conn.Close()
					meshMu.Lock()
					m := mesh
					meshMu.Unlock()
					if m != nil {
						m.Abort()
					}
				})
			}
		}
	}
	m, err := exec.NewMesh(exec.MeshConfig{
		Self:       id,
		Nodes:      cfg.Nodes,
		Listener:   dataLn,
		Peers:      topo.Addrs,
		DialBudget: opts.DialBudget,
		SendHook:   hook,
	})
	if err != nil {
		return refuse(fmt.Errorf("cluster: worker %d: mesh: %w", id, err))
	}
	closeDataLn = false // the mesh owns it now
	meshMu.Lock()
	mesh = m
	meshMu.Unlock()

	// teardown releases the mesh on every exit path.
	teardown := func() {
		m.Abort()
		m.CloseSend(id)
		m.Close()
	}

	if err := writeCtrlTimeout(conn, &exec.Ctrl{Kind: exec.CtrlReady}, opts.HandshakeTimeout); err != nil {
		teardown()
		return fmt.Errorf("cluster: worker %d: send ready: %w", id, err)
	}
	start, err := br.readCtrl(opts.HandshakeTimeout)
	if err != nil {
		teardown()
		return fmt.Errorf("cluster: worker %d: read start: %w", id, err)
	}
	if start.Kind == exec.CtrlAbort {
		teardown()
		return fmt.Errorf("cluster: worker %d: aborted before start: %s", id, start.Text)
	}
	if start.Kind != exec.CtrlStart {
		teardown()
		return refuse(fmt.Errorf("cluster: worker %d: expected start frame, got %v", id, start.Kind))
	}

	// The monitor watches the control connection during the run: an
	// abort frame (or the coordinator dying) tears the mesh down so the
	// node fails fast instead of waiting on peers that were told to
	// stop. On a clean run it ends when the coordinator closes the
	// connection after collecting every result.
	monDone := make(chan struct{})
	var monMu sync.Mutex
	var monReason string
	go func() {
		defer close(monDone)
		c, err := br.readCtrl(0)
		monMu.Lock()
		switch {
		case err == nil && c.Kind == exec.CtrlAbort:
			monReason = c.Text
		case err == nil:
			monReason = fmt.Sprintf("unexpected %v frame mid-run", c.Kind)
		default:
			monReason = fmt.Sprintf("coordinator connection lost: %v", err)
		}
		monMu.Unlock()
		m.Abort()
	}()

	opts.logf("node %d: running", id)
	res, runErr := exec.RunNode(prog, cfg, id, m)
	if runErr == nil {
		// Waits for the stream goroutines, surfacing any deferred
		// socket failure the same way exec.Run checks its transport.
		m.Close()
		if err := m.Err(); err != nil {
			runErr = err
		}
	}
	if runErr != nil {
		monMu.Lock()
		reason := monReason
		monMu.Unlock()
		if reason != "" {
			// The coordinator stopped us; our node error is the
			// consequence, not the cause.
			runErr = fmt.Errorf("cluster: worker %d: run aborted (%s): %w", id, reason, runErr)
		} else {
			runErr = fmt.Errorf("cluster: worker %d: %w", id, runErr)
		}
		writeCtrlTimeout(conn, &exec.Ctrl{Kind: exec.CtrlAbort, Node: id, Text: runErr.Error()}, opts.HandshakeTimeout)
		teardown()
		conn.Close()
		<-monDone
		return runErr
	}

	blob, err := exec.EncodeNodeResult(res)
	if err != nil {
		err = fmt.Errorf("cluster: worker %d: serialize result: %w", id, err)
		writeCtrlTimeout(conn, &exec.Ctrl{Kind: exec.CtrlAbort, Node: id, Text: err.Error()}, opts.HandshakeTimeout)
		conn.Close()
		<-monDone
		return err
	}
	if err := writeCtrlTimeout(conn, &exec.Ctrl{Kind: exec.CtrlResult, Node: id, Blob: blob}, opts.HandshakeTimeout); err != nil {
		conn.Close()
		<-monDone
		return fmt.Errorf("cluster: worker %d: send result: %w", id, err)
	}
	opts.logf("node %d: result sent (%d bytes)", id, len(blob))

	// Linger until the coordinator closes the connection: that is the
	// acknowledgment that the result frame was consumed, so closing our
	// side cannot revoke it.
	select {
	case <-monDone:
	case <-time.After(opts.HandshakeTimeout):
	}
	conn.Close()
	<-monDone
	return nil
}

func writeCtrlTimeout(conn net.Conn, c *exec.Ctrl, timeout time.Duration) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return exec.WriteCtrl(conn, c)
}

// localHost is the host half of the connection's local address — the
// interface the coordinator actually reached, which is therefore a
// reasonable one to advertise for the data plane.
func localHost(conn net.Conn) string {
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil || host == "" {
		return "127.0.0.1"
	}
	return host
}
