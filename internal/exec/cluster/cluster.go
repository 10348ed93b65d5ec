// Package cluster is the multi-process deployment layer for the
// executor: a coordinator that distributes a compiled program to worker
// processes and assembles their results, plus the worker loop that
// cmd/node runs. Where internal/exec runs all n nodes as goroutines in
// one process, cluster runs each node in its own OS process (spawned
// locally via Spawn, or pre-started anywhere reachable via Join) and
// carries the bootstrap over the same versioned, length-prefixed wire
// format the data plane uses.
//
// Bootstrap sequence, per worker, over its control connection:
//
//	coordinator                                worker
//	    | -- hello (node id, n, steps, bpe) -->  |
//	    | <-- hello (data-plane address) -------  |
//	    | -- topology (all n data addresses) -->  |
//	    | -- program (serialized blob) ---------> |   builds mesh,
//	    | <-- ready ----------------------------  |   dials peers
//	    | -- start ----------------------------> |   runs node
//	    | <-- result (stats + final shards) ----  |   or abort (reason)
//
// Every frame carries a protocol version byte; a worker from a
// different build is refused at the first frame. Failure semantics:
// each phase is bounded by a handshake timeout, a worker that dies is
// detected by its control connection closing (Spawn mode additionally
// reaps the process and attaches its exit status and stderr tail), and
// the first failure makes the coordinator broadcast an abort frame so
// surviving workers tear down their meshes and exit instead of blocking
// on a peer that will never send.
package cluster

import (
	"fmt"
	"net"
	"sort"
	"time"

	"autopart/internal/exec"
)

// Options bounds the coordinator's patience.
type Options struct {
	// HandshakeTimeout bounds each bootstrap phase per worker: reading
	// the hello reply, and reaching ready after topology + program
	// delivery (default 10s).
	HandshakeTimeout time.Duration
	// DialBudget bounds dialing a worker's control address, including
	// retries while the process is still starting (default 10s). Workers
	// inherit it for their data-plane dials via the hello frame's
	// contract (they apply their own default if unset).
	DialBudget time.Duration
	// AbortDrain bounds how long the coordinator waits, after the first
	// failure, for the remaining workers' own failure reports before
	// classifying the root cause (default 2s, at least HandshakeTimeout).
	AbortDrain time.Duration
}

func (o Options) withDefaults() Options {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.DialBudget <= 0 {
		o.DialBudget = 10 * time.Second
	}
	if o.AbortDrain <= 0 {
		o.AbortDrain = 2 * time.Second
	}
	if o.AbortDrain < o.HandshakeTimeout {
		o.AbortDrain = o.HandshakeTimeout
	}
	return o
}

// worker is the coordinator's handle on one node's process: its control
// connection, and in Spawn mode the process bookkeeping used to turn a
// dead connection into an exit status and stderr tail.
type worker struct {
	id       int
	conn     net.Conn
	br       *ctrlReader
	dataAddr string

	// Spawn mode only.
	tail *tailBuffer   // ring buffer over the process's stderr
	died chan struct{} // closed once the process is reaped
	exit func() string // exit description, valid after died closes
	kill func()        // hard-kill the process
}

// ctrlReader is the buffered side of a control connection. Buffering
// must persist across phases (a frame boundary can land mid-buffer), so
// each worker owns exactly one.
type ctrlReader struct {
	conn net.Conn
	r    interface {
		Read([]byte) (int, error)
	}
}

func (c *ctrlReader) Read(p []byte) (int, error) { return c.r.Read(p) }

// readCtrl reads one control frame, bounding the wait when timeout > 0.
func (c *ctrlReader) readCtrl(timeout time.Duration) (exec.Ctrl, error) {
	if timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	return exec.ReadCtrl(c)
}

// writeCtrl writes one control frame, bounding the wait when timeout > 0
// (an abort broadcast must not block on a wedged worker).
func (w *worker) writeCtrl(c *exec.Ctrl, timeout time.Duration) error {
	if timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer w.conn.SetWriteDeadline(time.Time{})
	}
	return exec.WriteCtrl(w.conn, c)
}

// Join runs prog on cfg.Nodes pre-started workers whose control
// addresses are given in node-id order (ServeWorker or cmd/node
// instances, possibly on other hosts). The caller keeps ownership of
// the worker processes; Join owns only the connections.
func Join(prog *exec.Program, cfg exec.Config, addrs []string, opts Options) (*exec.Result, error) {
	opts = opts.withDefaults()
	if len(addrs) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d worker addresses for %d nodes", len(addrs), cfg.Nodes)
	}
	ws := make([]*worker, cfg.Nodes)
	for id, addr := range addrs {
		conn, err := exec.DialRetry(addr, opts.DialBudget)
		if err != nil {
			closeAll(ws[:id])
			return nil, fmt.Errorf("cluster: dial worker %d (%s): %w", id, addr, err)
		}
		ws[id] = newWorker(id, conn)
	}
	defer closeAll(ws)
	return runCluster(prog, cfg, ws, opts)
}

func newWorker(id int, conn net.Conn) *worker {
	return &worker{id: id, conn: conn, br: &ctrlReader{conn: conn, r: newBufReader(conn)}}
}

func closeAll(ws []*worker) {
	for _, w := range ws {
		if w != nil && w.conn != nil {
			w.conn.Close()
		}
	}
}

// runCluster drives the bootstrap and the run over an already-connected
// worker set, then assembles the per-node results into one Result.
func runCluster(prog *exec.Program, cfg exec.Config, ws []*worker, opts Options) (*exec.Result, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	blob, err := exec.EncodeProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("cluster: serialize program: %w", err)
	}

	// Phase 1: hello exchange. Each worker learns its identity and run
	// shape, and replies with the data-plane address it listens on.
	err = phase(ws, func(w *worker) error {
		hello := &exec.Ctrl{
			Kind:         exec.CtrlHello,
			Node:         w.id,
			Nodes:        cfg.Nodes,
			Steps:        cfg.Steps,
			BytesPerElem: cfg.BytesPerElem,
		}
		if err := w.writeCtrl(hello, opts.HandshakeTimeout); err != nil {
			return fmt.Errorf("send hello: %w", err)
		}
		reply, err := w.br.readCtrl(opts.HandshakeTimeout)
		if err != nil {
			return fmt.Errorf("read hello reply: %w", w.deathErr(err, opts))
		}
		if reply.Kind == exec.CtrlAbort {
			return fmt.Errorf("worker refused hello: %s", reply.Text)
		}
		if reply.Kind != exec.CtrlHello || reply.Node != w.id || reply.Text == "" {
			return fmt.Errorf("bad hello reply (kind=%v, node=%d, addr=%q)", reply.Kind, reply.Node, reply.Text)
		}
		w.dataAddr = reply.Text
		return nil
	})
	if err != nil {
		abortAll(ws, opts)
		return nil, err
	}

	// Phase 2: topology + program. Workers build their meshes (dialing
	// each other full-mesh) and acknowledge with ready.
	addrs := make([]string, len(ws))
	for _, w := range ws {
		addrs[w.id] = w.dataAddr
	}
	err = phase(ws, func(w *worker) error {
		if err := w.writeCtrl(&exec.Ctrl{Kind: exec.CtrlTopology, Addrs: addrs}, opts.HandshakeTimeout); err != nil {
			return fmt.Errorf("send topology: %w", err)
		}
		if err := w.writeCtrl(&exec.Ctrl{Kind: exec.CtrlProgram, Blob: blob}, opts.HandshakeTimeout); err != nil {
			return fmt.Errorf("send program: %w", err)
		}
		// Ready waits on the worker's n-1 peer dials, themselves bounded
		// by the mesh dial budget; allow for both.
		wait := opts.HandshakeTimeout + opts.DialBudget
		reply, err := w.br.readCtrl(wait)
		if err != nil {
			return fmt.Errorf("await ready: %w", w.deathErr(err, opts))
		}
		if reply.Kind == exec.CtrlAbort {
			return fmt.Errorf("worker aborted during bootstrap: %s", reply.Text)
		}
		if reply.Kind != exec.CtrlReady {
			return fmt.Errorf("expected ready, got %v", reply.Kind)
		}
		return nil
	})
	if err != nil {
		abortAll(ws, opts)
		return nil, err
	}

	// Phase 3: start. Only after every worker is ready, so no node runs
	// against a mesh whose peers might still refuse dials.
	err = phase(ws, func(w *worker) error {
		if err := w.writeCtrl(&exec.Ctrl{Kind: exec.CtrlStart}, opts.HandshakeTimeout); err != nil {
			return fmt.Errorf("send start: %w", err)
		}
		return nil
	})
	if err != nil {
		abortAll(ws, opts)
		return nil, err
	}

	// Phase 4: collect one result (or failure) per worker. Runs are
	// unbounded in time, so there is no read deadline here; a worker
	// that dies closes its connection, which is what ends the read.
	results, err := collect(ws, opts)
	if err != nil {
		return nil, err
	}
	res, err := exec.AssembleResult(prog, cfg, results)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return res, nil
}

// phase runs fn against every worker concurrently and returns the
// lowest-id failure, tagged with the worker's identity.
func phase(ws []*worker, fn func(*worker) error) error {
	errs := make([]error, len(ws))
	done := make(chan int, len(ws))
	for i, w := range ws {
		go func(i int, w *worker) {
			errs[i] = fn(w)
			done <- i
		}(i, w)
	}
	for range ws {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", ws[i].id, err)
		}
	}
	return nil
}

// event is one worker's terminal report: a result, an abort frame it
// sent, or a connection failure (death).
type event struct {
	node  int
	res   *exec.NodeResult
	abort string // abort frame text, when the worker reported its own failure
	err   error  // connection or protocol failure otherwise
}

// collect reads each worker's terminal frame. On the first failure it
// broadcasts abort, drains the remaining workers' reports (bounded by
// AbortDrain), and classifies the root cause.
func collect(ws []*worker, opts Options) ([]*exec.NodeResult, error) {
	events := make(chan event, len(ws))
	for _, w := range ws {
		go func(w *worker) { events <- readTerminal(w, opts) }(w)
	}

	results := make([]*exec.NodeResult, len(ws))
	var failures []event
	outstanding := len(ws)
	for outstanding > 0 {
		ev := <-events
		outstanding--
		if ev.res != nil {
			results[ev.node] = ev.res
			continue
		}
		failures = append(failures, ev)
		break
	}
	if len(failures) == 0 {
		return results, nil
	}

	// Someone failed: tell everyone to stop, then give the survivors a
	// bounded window to report their side before classifying.
	abortAll(ws, opts)
	deadline := time.After(opts.AbortDrain)
	for outstanding > 0 {
		select {
		case ev := <-events:
			outstanding--
			if ev.res == nil {
				failures = append(failures, ev)
			}
		case <-deadline:
			outstanding = 0
		}
	}
	return nil, classify(failures)
}

// readTerminal reads one worker's terminal frame: result, abort, or a
// dead connection.
func readTerminal(w *worker, opts Options) event {
	c, err := w.br.readCtrl(0)
	if err != nil {
		return event{node: w.id, err: w.deathErr(err, opts)}
	}
	switch c.Kind {
	case exec.CtrlResult:
		nr, err := exec.DecodeNodeResult(c.Blob)
		if err != nil {
			return event{node: w.id, err: fmt.Errorf("bad result frame: %w", err)}
		}
		if nr.ID != w.id {
			return event{node: w.id, err: fmt.Errorf("result frame names node %d", nr.ID)}
		}
		return event{node: w.id, res: nr}
	case exec.CtrlAbort:
		return event{node: w.id, abort: c.Text}
	default:
		return event{node: w.id, err: fmt.Errorf("expected result or abort frame, got %v", c.Kind)}
	}
}

// deathErr enriches a dead-connection error with the process's exit
// status and stderr tail when this coordinator spawned the process.
func (w *worker) deathErr(err error, opts Options) error {
	if w.died == nil {
		return err
	}
	select {
	case <-w.died:
	case <-time.After(opts.AbortDrain):
		return err
	}
	msg := w.exit()
	if tail := w.tail.String(); tail != "" {
		msg += "; stderr tail:\n" + tail
	}
	return fmt.Errorf("%s (%v)", msg, err)
}

// abortAll broadcasts the abort frame; write errors are ignored (the
// worker may already be gone, which is why we are aborting).
func abortAll(ws []*worker, opts Options) {
	for _, w := range ws {
		w.writeCtrl(&exec.Ctrl{Kind: exec.CtrlAbort, Text: "coordinator abort"}, opts.HandshakeTimeout)
	}
}

// classify picks the root cause from the collected failures: a worker
// that died without reporting its own abort is the culprit (its peers'
// aborts are consequences); otherwise the lowest-id abort frame speaks.
func classify(failures []event) error {
	sort.SliceStable(failures, func(i, j int) bool { return failures[i].node < failures[j].node })
	reported := make(map[int]bool)
	for _, ev := range failures {
		if ev.abort != "" {
			reported[ev.node] = true
		}
	}
	for _, ev := range failures {
		if ev.err != nil && !reported[ev.node] {
			return fmt.Errorf("cluster: node %d died: %w", ev.node, ev.err)
		}
	}
	for _, ev := range failures {
		if ev.abort != "" {
			return fmt.Errorf("cluster: node %d aborted the run: %s", ev.node, ev.abort)
		}
	}
	ev := failures[0]
	return fmt.Errorf("cluster: node %d failed: %w", ev.node, ev.err)
}
