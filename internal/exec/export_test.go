package exec

import (
	"sync"

	"autopart/internal/geometry"
)

// ErrOutsideWindow is the error a set outside a node's window wraps.
var ErrOutsideWindow = errOutsideWindow

// Touch is one element set of one region that a node's run reads or
// writes, and what it is.
type Touch struct {
	What, Region string
	Set          geometry.IndexSet
}

// NodeWindows derives node j's schedule and returns its window of each
// region with every set the run touches, listed independently of the
// schedule's own check: each transfer, fold owned part, merge reach,
// access-plan subregion and final gather piece.
func NodeWindows(prog *Program, cfg Config, j int) (map[string]geometry.IndexSet, []Touch, error) {
	applyDefaults(&cfg)
	scheds, final, win, err := schedule(prog, cfg, j)
	if err != nil {
		return nil, nil, err
	}
	var out []Touch
	for _, sc := range scheds {
		for _, list := range [][]transfer{sc.ghostsOut, sc.ghostsIn, sc.backsOut, sc.backsIn} {
			for _, tr := range list {
				out = append(out, Touch{tr.tag.String(), tr.tag.region, tr.set})
			}
		}
		for _, fs := range sc.folds {
			out = append(out, Touch{"fold of " + fs.fk.Field, fs.fk.Region, fs.own})
		}
		for fk, set := range sc.reach {
			out = append(out, Touch{"reach of " + fk.Field, fk.Region, set})
		}
		for st, a := range sc.task.Loop.Access {
			out = append(out, Touch{"access " + st.String(), a.Region, prog.Parts[a.Sym].Sub(j)})
		}
	}
	for _, fo := range final {
		out = append(out, Touch{"final piece of " + fo.key.Field, fo.key.Region, fo.owner.Sub(j)})
	}
	return win, out, nil
}

// SentMsg is what a test sees of one message a node handed its
// transport: the pair, the launch it belongs to, its kind (ghost, ship
// or merge) and how many payload slots it carries.
type SentMsg struct {
	From, To     int
	Step, Launch int
	Kind         string
	Elems        int
}

// SendRecorder wraps a transport factory and records every Send before
// forwarding it, so tests can hold the executor's charged counters to
// the messages it actually sent.
type SendRecorder struct {
	mu   sync.Mutex
	sent []SentMsg
}

// Wrap returns inner with every transport it builds recording into r.
func (r *SendRecorder) Wrap(inner TransportFactory) TransportFactory {
	return func(nodes int) (Transport, error) {
		tr, err := inner(nodes)
		if err != nil {
			return nil, err
		}
		return &recordingTransport{Transport: tr, r: r}, nil
	}
}

// Sent returns a copy of everything recorded so far.
func (r *SendRecorder) Sent() []SentMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SentMsg(nil), r.sent...)
}

type recordingTransport struct {
	Transport
	r *SendRecorder
}

func (t *recordingTransport) Send(from, to int, msg message) {
	t.r.mu.Lock()
	t.r.sent = append(t.r.sent, SentMsg{
		From: from, To: to, Step: msg.step, Launch: msg.launch, Kind: msg.kind.String(),
		Elems: len(msg.scalars) + len(msg.indexes) + len(msg.ranges),
	})
	t.r.mu.Unlock()
	t.Transport.Send(from, to, msg)
}
