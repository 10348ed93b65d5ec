package exec

import "sync"

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
