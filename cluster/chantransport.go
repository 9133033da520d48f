package cluster

import (
	"sync"
	"time"

	"pdq/internal/sim"
)

// ChanOption configures a ChanTransport.
type ChanOption func(*chanConfig)

type chanConfig struct {
	loss  float64
	dup   float64
	delay time.Duration
	seed  uint64
}

// WithLoss makes the transport drop each delivery attempt independently
// with probability p (a duplicated message's two copies draw separately,
// so one copy can survive a drop of the other). p is clamped to [0, 1).
// Lost messages are repaired by the cluster's retransmit timer.
func WithLoss(p float64) ChanOption {
	return func(c *chanConfig) { c.loss = clampProb(p) }
}

// WithDuplicate makes the transport deliver each message twice with
// probability p — the receiver-side dedup must drop the extra copy. p is
// clamped to [0, 1).
func WithDuplicate(p float64) ChanOption {
	return func(c *chanConfig) { c.dup = clampProb(p) }
}

// WithDelay delays every delivery by a uniform random duration in
// [0, max]. Because each message draws its own delay, deliveries between a
// node pair can reorder — the session layer's reorder buffer puts them
// back in sequence.
func WithDelay(max time.Duration) ChanOption {
	return func(c *chanConfig) {
		if max > 0 {
			c.delay = max
		}
	}
}

// WithChanSeed seeds the transport's fault-injection draws, so a lossy run
// is reproducible. The default seed is 1.
func WithChanSeed(seed uint64) ChanOption {
	return func(c *chanConfig) { c.seed = seed }
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p >= 1 {
		return 0.999999
	}
	return p
}

// ChanTransport is the in-process Transport: per-node unbounded mailboxes
// drained by one delivery goroutine each, with injectable loss,
// duplication, and delay for fault testing. With no options it is a
// reliable, per-pair-FIFO transport suitable for production-style
// same-process use of Cluster.
type ChanTransport struct {
	cfg chanConfig

	rngMu sync.Mutex
	rng   *sim.Rand

	boxes []*mailbox
	recv  []func(from int, m WireMsg)

	timers sync.WaitGroup // outstanding delayed deliveries

	closeMu sync.Mutex
	closed  bool
}

// chanDelivery is one message sitting in a node's mailbox.
type chanDelivery struct {
	from int
	m    WireMsg
}

// mailbox is an unbounded FIFO drained by a dedicated goroutine. An
// unbounded queue (rather than a channel) keeps Send non-blocking even
// when a receive callback fans out more sends, so transport back-pressure
// can never deadlock the session layer. The drain goroutine swaps queue
// with spare, the batch it delivered last, so a steady stream fills two
// backing arrays in turn instead of growing a fresh one per batch.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []chanDelivery
	spare  []chanDelivery // empty; touched only by the drain goroutine
	closed bool
	done   chan struct{}
}

func newMailbox() *mailbox {
	b := &mailbox{done: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(from int, m *WireMsg) {
	b.mu.Lock()
	if !b.closed {
		b.queue = append(b.queue, chanDelivery{from, *m})
		b.cond.Signal()
	}
	b.mu.Unlock()
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
	<-b.done
}

// NewChanTransport returns an in-process transport connecting nodes
// [0, nodes), shaped by opts.
func NewChanTransport(nodes int, opts ...ChanOption) *ChanTransport {
	cfg := chanConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	t := &ChanTransport{
		cfg:   cfg,
		rng:   sim.NewRand(cfg.seed),
		boxes: make([]*mailbox, nodes),
		recv:  make([]func(int, WireMsg), nodes),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
		go t.drain(i)
	}
	return t
}

// drain delivers node i's mailbox in order on a dedicated goroutine, so
// receive callbacks for one node never run concurrently with each other
// from this transport.
func (t *ChanTransport) drain(i int) {
	b := t.boxes[i]
	defer close(b.done)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		batch := b.queue
		b.queue = b.spare
		b.mu.Unlock()
		recv := t.recv[i]
		for j := range batch {
			recv(batch[j].from, batch[j].m)
		}
		clear(batch) // delivered payloads must not stay reachable from the spare
		b.spare = batch[:0]
	}
}

// Bind installs node's receive callback. It must be called before any
// traffic reaches the node.
func (t *ChanTransport) Bind(node int, recv func(from int, m WireMsg)) {
	t.recv[node] = recv
}

// Send delivers m best-effort, applying the configured loss, duplication,
// and delay. It never blocks on the receiver.
func (t *ChanTransport) Send(from, to int, m WireMsg) {
	if t.cfg.loss == 0 && t.cfg.dup == 0 && t.cfg.delay == 0 {
		t.boxes[to].put(from, &m) // nothing to draw: no lock, no RNG
		return
	}
	copies := 1
	var drop1, drop2 bool
	var d1, d2 time.Duration
	t.rngMu.Lock()
	if t.cfg.dup > 0 && t.rng.Pick(t.cfg.dup) {
		copies = 2
	}
	drop1 = t.cfg.loss > 0 && t.rng.Pick(t.cfg.loss)
	drop2 = t.cfg.loss > 0 && t.rng.Pick(t.cfg.loss)
	if t.cfg.delay > 0 {
		d1 = time.Duration(t.rng.Uint64() % uint64(t.cfg.delay+1))
		d2 = time.Duration(t.rng.Uint64() % uint64(t.cfg.delay+1))
	}
	t.rngMu.Unlock()
	if !drop1 {
		t.deliver(from, to, m, d1)
	}
	if copies == 2 && !drop2 {
		t.deliver(from, to, m, d2)
	}
}

func (t *ChanTransport) deliver(from, to int, m WireMsg, after time.Duration) {
	if after <= 0 {
		t.boxes[to].put(from, &m)
		return
	}
	t.closeMu.Lock() // orders the Add before Close's Wait: a closing transport drops what it would have delayed
	if !t.closed {
		t.timers.Add(1)
		time.AfterFunc(after, func() {
			defer t.timers.Done()
			t.boxes[to].put(from, &m)
		})
	}
	t.closeMu.Unlock()
}

// Close stops delivery and waits for the delivery goroutines (and any
// pending delayed deliveries) to finish.
func (t *ChanTransport) Close() {
	t.closeMu.Lock()
	if t.closed {
		t.closeMu.Unlock()
		return
	}
	t.closed = true
	t.closeMu.Unlock()
	t.timers.Wait()
	for _, b := range t.boxes {
		b.close()
	}
}
