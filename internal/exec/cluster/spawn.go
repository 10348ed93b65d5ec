package cluster

import (
	"bufio"
	"fmt"
	"io"
	osexec "os/exec"
	"strings"
	"sync"
	"time"

	"autopart/internal/exec"
)

// AnnouncePrefix starts the one stdout line a spawned worker must print
// once its control listener is up: "NODE_LISTEN <host:port>". The
// coordinator scans stdout for it, so workers may log other lines first.
const AnnouncePrefix = "NODE_LISTEN "

// SpawnOptions configures Spawn.
type SpawnOptions struct {
	Options
	// Command is the worker argv. Each process must listen for one
	// control connection and print AnnouncePrefix + its address on
	// stdout (cmd/node does; so does cmd/run re-execing itself).
	Command []string
	// ExtraArgs, when non-nil, appends per-worker argv (the failure
	// drills use it to arm one worker's crash flag).
	ExtraArgs func(id int) []string
	// StderrTail bounds the per-worker stderr ring buffer attached to
	// crash reports (default 4096 bytes).
	StderrTail int
}

// Spawn starts cfg.Nodes worker processes, bootstraps them, runs prog,
// and reaps every process before returning. A worker that crashes is
// reported with its node id, exit status, and stderr tail; the
// remaining workers are aborted and killed rather than left to hang.
func Spawn(prog *exec.Program, cfg exec.Config, opts SpawnOptions) (*exec.Result, error) {
	opts.Options = opts.Options.withDefaults()
	if len(opts.Command) == 0 {
		return nil, fmt.Errorf("cluster: spawn: empty worker command")
	}
	if opts.StderrTail <= 0 {
		opts.StderrTail = 4096
	}
	ws := make([]*worker, 0, cfg.Nodes)
	defer func() {
		closeAll(ws)
		for _, w := range ws {
			reap(w)
		}
	}()
	for id := 0; id < cfg.Nodes; id++ {
		argv := append([]string(nil), opts.Command...)
		if opts.ExtraArgs != nil {
			argv = append(argv, opts.ExtraArgs(id)...)
		}
		w, err := startWorker(id, argv, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", id, err)
		}
		ws = append(ws, w)
	}
	return runCluster(prog, cfg, ws, opts.Options)
}

// startWorker launches one process, waits for its announce line, and
// dials its control address.
func startWorker(id int, argv []string, opts SpawnOptions) (*worker, error) {
	cmd := osexec.Command(argv[0], argv[1:]...)
	tail := &tailBuffer{max: opts.StderrTail}
	cmd.Stderr = tail
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %q: %w", argv[0], err)
	}

	died := make(chan struct{})
	var exitErr error
	go func() {
		exitErr = cmd.Wait()
		close(died)
	}()
	w := &worker{
		id:   id,
		tail: tail,
		died: died,
		exit: func() string {
			if exitErr != nil {
				return fmt.Sprintf("process exited: %v", exitErr)
			}
			return "process exited: status 0"
		},
		kill: func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		},
	}

	addr, err := awaitAnnounce(stdout, died, opts.HandshakeTimeout)
	if err != nil {
		w.kill()
		reap(w)
		return nil, err
	}
	conn, err := exec.DialRetry(addr, opts.DialBudget)
	if err != nil {
		w.kill()
		reap(w)
		return nil, fmt.Errorf("dial control %s: %w", addr, err)
	}
	w.conn = conn
	w.br = &ctrlReader{conn: conn, r: newBufReader(conn)}
	return w, nil
}

// awaitAnnounce scans the process's stdout for the announce line, then
// leaves a goroutine draining the rest of the stream so the child never
// blocks on a full stdout pipe.
func awaitAnnounce(stdout io.Reader, died <-chan struct{}, timeout time.Duration) (string, error) {
	type lineOrErr struct {
		addr string
		err  error
	}
	ch := make(chan lineOrErr, 1)
	go func() {
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			if s := strings.TrimSpace(line); strings.HasPrefix(s, AnnouncePrefix) {
				ch <- lineOrErr{addr: strings.TrimSpace(strings.TrimPrefix(s, AnnouncePrefix))}
				io.Copy(io.Discard, br)
				return
			}
			if err != nil {
				ch <- lineOrErr{err: fmt.Errorf("stdout closed before announce line: %w", err)}
				return
			}
		}
	}()
	select {
	case le := <-ch:
		if le.err != nil {
			return "", le.err
		}
		if le.addr == "" {
			return "", fmt.Errorf("empty announce line")
		}
		return le.addr, nil
	case <-died:
		// Give the scanner a moment to surface any partial line context.
		select {
		case le := <-ch:
			if le.addr != "" {
				return le.addr, nil
			}
		case <-time.After(100 * time.Millisecond):
		}
		return "", fmt.Errorf("process exited before announcing its address")
	case <-time.After(timeout):
		return "", fmt.Errorf("no announce line within %v", timeout)
	}
}

// reap waits briefly for a worker's process to exit on its own (it
// should: its control connection just closed), then hard-kills it. A
// nil or non-spawned worker is a no-op.
func reap(w *worker) {
	if w == nil || w.died == nil {
		return
	}
	select {
	case <-w.died:
		return
	case <-time.After(5 * time.Second):
	}
	w.kill()
	<-w.died
}

// tailBuffer keeps the last max bytes written to it: enough stderr to
// diagnose a crashed worker without buffering an unbounded log.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

func newBufReader(r io.Reader) io.Reader { return bufio.NewReader(r) }
