package exec

import (
	"runtime"
	"testing"
	"time"
)

// TestQueueFIFOUnderContention drives an inbox with a fast producer and
// a deliberately slow consumer, so the elastic buffer grows and shrinks
// while deliveries continue: every message must come out exactly once,
// in send order, and the producer must never be blocked by the
// consumer's pace (the never-blocks contract the executor's deadlock
// freedom rests on) — the first half is pushed before the consumer has
// taken a single message.
func TestQueueFIFOUnderContention(t *testing.T) {
	const n = 5000
	q := newInbox(1)
	for i := 0; i < n; i++ {
		q.push(message{step: i})
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := n; i < 2*n; i++ {
			q.push(message{step: i})
		}
		q.done()
	}()

	for i := 0; i < 2*n; i++ {
		if i%500 == 0 {
			time.Sleep(time.Millisecond) // let the buffer accumulate
		}
		m, ok := <-q.out
		if !ok {
			t.Fatalf("inbox closed after %d of %d messages", i, 2*n)
		}
		if m.step != i {
			t.Fatalf("message %d arrived out of order (step=%d)", i, m.step)
		}
	}
	if _, ok := <-q.out; ok {
		t.Fatal("inbox delivered an extra message")
	}
	<-sent
}

// TestQueueDrainsOnClose ends every sender while the buffer still holds
// undelivered messages: both consumers of the queue — an inbox's
// forwarder and a stream writer's take loop — must see every one, in
// order, before the end of the stream.
func TestQueueDrainsOnClose(t *testing.T) {
	const n = 1000
	in, raw := newInbox(2), newQueue(2)
	for _, q := range []*queue{in, raw} {
		for i := 0; i < n; i++ {
			q.push(message{step: i})
		}
		q.done()
		q.done()
	}
	for i := 0; i < n; i++ {
		m, ok := <-in.out
		if !ok {
			t.Fatalf("inbox closed with %d messages still buffered", n-i)
		}
		if m.step != i {
			t.Fatalf("drain reordered message %d (step=%d)", i, m.step)
		}
	}
	if _, ok := <-in.out; ok {
		t.Fatal("inbox delivered a message that was never sent")
	}

	batch, open := raw.take()
	if len(batch) != n || open {
		t.Fatalf("take returned %d messages (open=%v), want %d on a finished queue", len(batch), open, n)
	}
	for i, m := range batch {
		if m.step != i {
			t.Fatalf("take reordered message %d (step=%d)", i, m.step)
		}
	}
	if batch, open := raw.take(); len(batch) != 0 || open {
		t.Fatalf("drained queue still yields %d messages (open=%v)", len(batch), open)
	}
}

// TestQueueNoGoroutineLeak spins up many inboxes, runs traffic through
// them, finishes their senders, and checks the goroutine count returns
// to (about) its baseline — a forwarder that fails to exit would
// accumulate across the executor's many short runs.
func TestQueueNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const inboxes = 200
	qs := make([]*queue, inboxes)
	for i := range qs {
		qs[i] = newInbox(1)
		go func(q *queue) {
			for j := 0; j < 10; j++ {
				q.push(message{step: j})
			}
			q.done()
		}(qs[i])
	}
	for _, q := range qs {
		for range q.out {
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestMailboxTakeFailsOnDeadPeer blocks a take on a message from peer 3
// of 8 and then reports one end of stream: peer 3's own, an
// unattributable one (-1) or one from an id outside the node range
// fails the take with peer 3 named; peer 5's leaves it blocked until
// the message lands.
func TestMailboxTakeFailsOnDeadPeer(t *testing.T) {
	k := tagKey{kind: ghostMsg, step: 1, launch: 2, req: 0, region: "R", field: "f", from: 3}
	for _, c := range []struct {
		dead  int
		fails bool
	}{{3, true}, {-1, true}, {8, true}, {5, false}} {
		mb := newMailbox(8)
		done := make(chan error, 1)
		go func() {
			_, err := mb.take(k)
			done <- err
		}()
		for blocked := false; !blocked; {
			mb.mu.Lock()
			blocked = mb.waiters == 1
			mb.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		mb.peerDead(c.dead)
		if !c.fails {
			select {
			case err := <-done:
				t.Fatalf("peerDead(%d): take of %s returned %v, want it still blocked", c.dead, k, err)
			case <-time.After(20 * time.Millisecond):
			}
			mb.put(message{kind: k.kind, step: k.step, launch: k.launch, req: k.req, region: k.region, field: k.field, from: k.from})
		}
		select {
		case err := <-done:
			want := "peer 3 exited before sending " + k.String()
			if c.fails && (err == nil || err.Error() != want) {
				t.Errorf("peerDead(%d): take error %v, want %q", c.dead, err, want)
			}
			if !c.fails && err != nil {
				t.Errorf("peerDead(%d): take error %v after the message landed", c.dead, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peerDead(%d): take of %s still blocked", c.dead, k)
		}
	}
}
