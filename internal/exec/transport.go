package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Transport moves messages between the executor's nodes. The contract
// every implementation must honor:
//
//   - Send never blocks indefinitely: the transport buffers unboundedly
//     between sender and receiver, which is what lets a node enqueue all
//     of a launch's outgoing messages before blocking on any receive
//     (the deadlock-freedom argument in package exec's doc comment).
//   - Mailbox(j) is node j's one receive buffer, which the transport
//     fills directly; messages from different senders interleave
//     arbitrarily, and no per-pair order is promised either. The
//     dependency scheduler matches deliveries by tag, never by
//     position, so any interleaving yields the same result — the flaky
//     transport exists to prove that.
//   - Each delivered message carries its sender in msg.from.
//   - CloseSend(j) declares node j will send no more. Its end of stream
//     is marked once in j's receivers' mailboxes, after every message j
//     sent; once every sender has ended, each mailbox is drained.
//
// Implementations may also expose Err() error, which Run checks after
// the nodes exit (socket transports report stream failures this way).
type Transport interface {
	Send(from, to int, msg message)
	Mailbox(to int) *mailbox
	CloseSend(from int)
}

// TransportFactory builds a transport for a node count. Config carries
// one so drivers can pick a transport without exec re-exporting the
// implementations' knobs.
type TransportFactory func(nodes int) (Transport, error)

// errReporter is the optional deferred-error surface of a transport.
type errReporter interface {
	Err() error
}

// TransportByName maps the driver-facing names {inproc, tcp, flaky} to
// factories with default knobs (flaky seeds from 1 with 2ms max delay).
func TransportByName(name string) (TransportFactory, error) {
	switch name {
	case "", "inproc":
		return InprocTransport(), nil
	case "tcp":
		return TCPTransport(), nil
	case "flaky":
		return FlakyTransport(1, 2*time.Millisecond), nil
	default:
		return nil, fmt.Errorf("exec: unknown transport %q (have inproc, tcp, flaky)", name)
	}
}

// queue is the package's one unbounded elastic FIFO, in front of every
// socket writer: push appends under a lock and never blocks, and the
// writer takes whatever has accumulated, waiting on the doorbell when
// there is nothing. A sender therefore never waits on a slow socket,
// which is what lets a node enqueue all of a launch's outgoing messages
// before blocking on any receive (a cycle of waiting nodes would require
// some send to block, and none can).
type queue struct {
	mu      sync.Mutex
	q       []message
	spare   []message     // the batch the last take handed out
	wake    chan struct{} // 1-buffered doorbell
	senders int           // producers that have not called done
}

func newQueue(senders int) *queue {
	return &queue{wake: make(chan struct{}, 1), senders: senders}
}

func (q *queue) push(m message) {
	q.mu.Lock()
	q.q = append(q.q, m)
	q.mu.Unlock()
	q.ring()
}

// done declares one sender finished; everything it pushed earlier is
// still taken.
func (q *queue) done() {
	q.mu.Lock()
	q.senders--
	q.mu.Unlock()
	q.ring()
}

func (q *queue) ring() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take removes and returns everything queued, in push order, without
// blocking. open is false once every sender is done: an empty batch
// with open false is the end of the stream. A batch stays valid until
// the consumer's next take, which clears it and keeps it as the backing
// array of the pushes after it.
func (q *queue) take() (batch []message, open bool) {
	q.mu.Lock()
	batch, open = q.q, q.senders > 0
	clear(q.spare)
	q.q, q.spare = q.spare[:0], batch
	q.mu.Unlock()
	return batch, open
}

// wait blocks until a push or done has happened since the last take.
func (q *queue) wait() { <-q.wake }

// inprocTransport is the in-process default: Send puts the message
// straight into the receiver's mailbox from the sender's goroutine, and
// every mailbox shares one set of end marks, so a sender's end costs one
// channel close however many nodes there are.
type inprocTransport struct {
	boxes []*mailbox
	ends  *ends
}

// InprocTransport returns the factory for the in-process transport.
func InprocTransport() TransportFactory {
	return func(nodes int) (Transport, error) {
		t := &inprocTransport{boxes: make([]*mailbox, nodes), ends: newEnds(nodes, nodes)}
		for j := range t.boxes {
			t.boxes[j] = newMailbox(t.ends)
		}
		return t, nil
	}
}

func (t *inprocTransport) Send(from, to int, msg message) {
	msg.from = from
	t.boxes[to].put(msg)
}

func (t *inprocTransport) Mailbox(to int) *mailbox { return t.boxes[to] }

func (t *inprocTransport) CloseSend(from int) { t.ends.end(from) }

// flakyTransport wraps another transport and injects seeded random
// per-message latency, which reorders deliveries across — and within —
// sender pairs. Delivery stays reliable (the coherence protocol has no
// retransmission; a lost message is a protocol error by design), so
// what the chaos proves is that the dependency tracking is
// schedule-independent: any arrival order produces bit-identical data.
type flakyTransport struct {
	inner    Transport
	mu       sync.Mutex
	rng      *rand.Rand
	maxDelay time.Duration
	pending  [](*sync.WaitGroup)
}

// FlakyTransport returns a factory injecting up to maxDelay of seeded
// random latency per message on top of the in-process transport.
func FlakyTransport(seed int64, maxDelay time.Duration) TransportFactory {
	return func(nodes int) (Transport, error) {
		inner, err := InprocTransport()(nodes)
		if err != nil {
			return nil, err
		}
		t := &flakyTransport{
			inner:    inner,
			rng:      rand.New(rand.NewSource(seed)),
			maxDelay: maxDelay,
			pending:  make([]*sync.WaitGroup, nodes),
		}
		for j := range t.pending {
			t.pending[j] = &sync.WaitGroup{}
		}
		return t, nil
	}
}

func (t *flakyTransport) Send(from, to int, msg message) {
	t.mu.Lock()
	delay := time.Duration(t.rng.Int63n(int64(t.maxDelay) + 1))
	t.mu.Unlock()
	wg := t.pending[from]
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(delay)
		t.inner.Send(from, to, msg)
	}()
}

func (t *flakyTransport) Mailbox(to int) *mailbox { return t.inner.Mailbox(to) }

// CloseSend waits for the sender's in-flight delayed messages so its end
// is never marked ahead of a delivery.
func (t *flakyTransport) CloseSend(from int) {
	t.pending[from].Wait()
	t.inner.CloseSend(from)
}
