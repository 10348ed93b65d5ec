package exec

import (
	"runtime"
	"testing"
	"time"
)

// drainQueue consumes q the way a socket writer does — take everything,
// wait on the doorbell when nothing is queued, stop at the end of the
// stream — handing each message to got.
func drainQueue(q *queue, got func(message)) {
	for {
		batch, open := q.take()
		for _, m := range batch {
			got(m)
		}
		if len(batch) > 0 {
			continue
		}
		if !open {
			return
		}
		q.wait()
	}
}

// TestQueueFIFOUnderContention drives a writer queue with a fast
// producer and a deliberately slow consumer, so the elastic buffer grows
// and shrinks while deliveries continue: every message must come out
// exactly once, in push order, and the producer must never be blocked by
// the consumer's pace (the never-blocks contract the executor's deadlock
// freedom rests on) — the first half is pushed before the consumer has
// taken a single message.
func TestQueueFIFOUnderContention(t *testing.T) {
	const n = 5000
	q := newQueue(1)
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

	next := 0
	drainQueue(q, func(m message) {
		if next%500 == 0 {
			time.Sleep(time.Millisecond) // let the buffer accumulate
		}
		if m.step != next {
			t.Fatalf("message %d arrived out of order (step=%d)", next, m.step)
		}
		next++
	})
	if next != 2*n {
		t.Fatalf("queue ended after %d of %d messages", next, 2*n)
	}
	<-sent
}

// TestQueueDrainsOnClose ends every sender while the buffer still holds
// untaken messages: the writer's take must hand over every one, in
// order, and only then report the end of the stream.
func TestQueueDrainsOnClose(t *testing.T) {
	const n = 1000
	q := newQueue(2)
	for i := 0; i < n; i++ {
		q.push(message{step: i})
	}
	q.done()
	q.done()
	batch, open := q.take()
	if len(batch) != n || open {
		t.Fatalf("take returned %d messages (open=%v), want %d on a finished queue", len(batch), open, n)
	}
	for i, m := range batch {
		if m.step != i {
			t.Fatalf("take reordered message %d (step=%d)", i, m.step)
		}
	}
	if batch, open := q.take(); len(batch) != 0 || open {
		t.Fatalf("drained queue still yields %d messages (open=%v)", len(batch), open)
	}
}

// TestQueueNoGoroutineLeak runs traffic through many writer queues, each
// drained by its own consumer goroutine, finishes their senders, and
// checks the goroutine count returns to (about) its baseline — a
// consumer that missed its end of stream would accumulate across the
// executor's many short runs.
func TestQueueNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const queues = 200
	for i := 0; i < queues; i++ {
		q := newQueue(1)
		go drainQueue(q, func(message) {})
		go func() {
			for j := 0; j < 10; j++ {
				q.push(message{step: j})
			}
			q.done()
		}()
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
// of 8 and then ends one stream: peer 3's own end, or an end no sender
// can be named for, fails the take with peer 3 named; peer 5's leaves it
// blocked until the message lands. A message put before its sender's end
// is still taken after the end.
func TestMailboxTakeFailsOnDeadPeer(t *testing.T) {
	k := tagKey{kind: ghostMsg, step: 1, launch: 2, req: 0, region: "R", field: "f", from: 3}
	msg := message{kind: k.kind, step: k.step, launch: k.launch, req: k.req, region: k.region, field: k.field, from: k.from}
	want := "peer 3 exited before sending " + k.String()
	for _, c := range []struct {
		dead  int
		fails bool
	}{{3, true}, {-1, true}, {5, false}} {
		mb := newMailbox(newEnds(8, 8))
		done := make(chan error, 2)
		for i := 0; i < 2; i++ { // two takes, so an end must reach every waiter
			go func() {
				_, err := mb.take(k)
				done <- err
			}()
		}
		for blocked := false; !blocked; {
			mb.mu.Lock()
			blocked = mb.waiters == 2
			mb.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		mb.ends.end(c.dead)
		if !c.fails {
			select {
			case err := <-done:
				t.Fatalf("end(%d): take of %s returned %v, want it still blocked", c.dead, k, err)
			case <-time.After(20 * time.Millisecond):
			}
			mb.put(msg)
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if c.fails && (err == nil || err.Error() != want) {
					t.Errorf("end(%d): take error %v, want %q", c.dead, err, want)
				}
				if !c.fails && i == 0 && err != nil {
					t.Errorf("end(%d): take error %v after the message landed", c.dead, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("end(%d): take of %s still blocked", c.dead, k)
			}
			if !c.fails && i == 0 {
				mb.put(msg) // the second take's copy
			}
		}
	}

	// The sender puts, then ends: its message is still there to take.
	mb := newMailbox(newEnds(8, 8))
	mb.put(msg)
	mb.ends.end(3)
	if _, err := mb.take(k); err != nil {
		t.Fatalf("take of a message put before its sender's end: %v", err)
	}
	if _, err := mb.take(k); err == nil || err.Error() != want {
		t.Fatalf("second take after the end: %v, want %q", err, want)
	}
}

// TestMailboxEndsCountEachSenderOnce: the mailboxes drain once every
// stream has ended; a sender reported twice counts once, and every
// anonymous end counts as one stream.
func TestMailboxEndsCountEachSenderOnce(t *testing.T) {
	e := newEnds(3, 3)
	e.end(1)
	e.end(1)
	e.end(-1)
	if closed(e.drained) {
		t.Fatal("drained after two of three streams ended")
	}
	e.end(-1)
	if !closed(e.drained) {
		t.Fatal("not drained after every stream ended")
	}
	if closed(e.gone[0]) || closed(e.gone[2]) {
		t.Fatal("an anonymous end was attributed to a sender")
	}
	if !closed(newEnds(1, 0).drained) {
		t.Fatal("a mailbox with no inbound streams is not drained")
	}
}
