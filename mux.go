package pdq

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Mux multiplexes several named parallel dispatch queues over one set of
// workers — the virtualization the paper marks as an active research area
// (Section 3.2: "virtualizing the PDQ hardware to provide multiple
// protected message queues per processor"). Each virtual queue keeps full
// PDQ semantics in isolation (its own key sets, barriers, and ready
// lists); the mux adds protection (queues cannot observe or block each
// other, beyond sharing worker capacity) and round-robin fairness across
// queues so one busy protocol cannot starve another.
//
// Wakeups use an edge-triggered token channel rather than a condition
// variable: member queues signal the mux from under their own locks, and
// the mux's dispatch path locks queues under the mux lock, so a
// lock-based signal would invert that order. A buffered token coalesces
// signals; consumers re-scan after every token, and dispatchers re-arm
// the token so bursts cascade to the other workers.
//
// Dispatch never holds the mux lock: the member-queue slice is published
// as a copy-on-write snapshot and the round-robin cursor is an atomic, so
// concurrent workers scan member queues fully in parallel — m.mu guards
// only queue-set mutation (Queue, Close), never the dispatch path, which
// would re-serialize every worker through one mutex and defeat the
// sharded dispatch core inside each member queue.
//
// A Mux is safe for concurrent use.
type Mux struct {
	mu     sync.Mutex // guards names, closed, and queue-set mutation
	names  map[string]*Queue
	closed bool

	queues     atomic.Pointer[[]*Queue] // copy-on-write snapshot scanned lock-free
	rr         atomic.Uint32            // round-robin scan start
	dispatched atomic.Uint64

	wakeCh chan struct{}
}

// snapshot returns the current member-queue slice. The slice is immutable
// once published; Queue replaces it wholesale under m.mu.
func (m *Mux) snapshot() []*Queue {
	if p := m.queues.Load(); p != nil {
		return *p
	}
	return nil
}

// NewMux returns an empty mux; virtual queues are created on first use
// via Queue.
func NewMux() *Mux {
	return &Mux{
		names:  make(map[string]*Queue),
		wakeCh: make(chan struct{}, 1),
	}
}

// Queue returns the virtual queue with the given name, creating it shaped
// by opts if absent. A plain lookup (no opts) of an existing queue
// succeeds; passing opts for an existing name returns that queue together
// with ErrQueueExists.
func (m *Mux) Queue(name string, opts ...Option) (*Queue, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.names[name]; ok {
		if len(opts) > 0 {
			return q, ErrQueueExists
		}
		return q, nil
	}
	if m.closed {
		return nil, ErrMuxClosed
	}
	q := New(opts...)
	q.notify = m.wake // wake the mux on any dispatchability change
	m.names[name] = q
	qs := append(append([]*Queue(nil), m.snapshot()...), q)
	m.queues.Store(&qs)
	return q, nil
}

// Names returns the registered queue names (unordered).
func (m *Mux) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.names))
	for n := range m.names {
		names = append(names, n)
	}
	return names
}

// wake deposits a wakeup token (coalescing). It never blocks and never
// takes m.mu — it is called from under member queues' locks.
func (m *Mux) wake() {
	select {
	case m.wakeCh <- struct{}{}:
	default:
	}
}

// TryDequeue scans the virtual queues round-robin and returns the first
// dispatchable entry along with its owning queue (pass it to that queue's
// Run, or Complete/Release). ok=false means nothing is dispatchable right
// now. The scan takes no mux-wide lock, so any number of workers can
// dispatch concurrently.
func (m *Mux) TryDequeue() (q *Queue, e *Entry, ok bool) {
	qs := m.snapshot()
	n := len(qs)
	if n == 0 {
		return nil, nil, false
	}
	start := int(m.rr.Load())
	for i := 0; i < n; i++ {
		cand := qs[(start+i)%n]
		if e, ok := cand.TryDequeue(); ok {
			// Fairness: resume after this queue. Concurrent dispatchers
			// race on the cursor; any of their stores is a valid resume
			// point, so a plain last-writer-wins store suffices.
			m.rr.Store(uint32((start + i + 1) % n))
			m.dispatched.Add(1)
			return cand, e, true
		}
	}
	return nil, nil, false
}

// MuxBatch is one virtual queue's slice of a batched mux dispatch: run
// Entries in order through Queue.RunBatch (or resolve each with that
// queue's Complete/Release).
type MuxBatch struct {
	Queue   *Queue
	Entries []*Entry
}

// TryDequeueBatch fills a batch of up to max entries across the member
// queues off the copy-on-write snapshot, round-robin from the fairness
// cursor: each queue contributes one single-lock harvest
// (Queue.TryDequeueBatch) until the batch is full or every queue has
// been offered. ok=false means nothing was dispatchable anywhere. Like
// TryDequeue, the scan takes no mux-wide lock.
func (m *Mux) TryDequeueBatch(max int) (batches []MuxBatch, ok bool) {
	qs := m.snapshot()
	n := len(qs)
	if n == 0 {
		return nil, false
	}
	if max < 1 {
		max = 1
	}
	start := int(m.rr.Load())
	total := 0
	for i := 0; i < n && total < max; i++ {
		cand := qs[(start+i)%n]
		if es, ok := cand.TryDequeueBatch(max - total); ok {
			batches = append(batches, MuxBatch{Queue: cand, Entries: es})
			total += len(es)
			// Fairness: resume after this queue (last-writer-wins, as in
			// TryDequeue).
			m.rr.Store(uint32((start + i + 1) % n))
			m.dispatched.Add(uint64(len(es)))
		}
	}
	return batches, len(batches) > 0
}

// DequeueBatch blocks until at least one entry is dispatchable on some
// virtual queue, then returns up to max entries grouped by owning queue
// (see MuxBatch), ctx is done (ctx.Err()), or the mux is closed and
// every queue has drained (ErrMuxClosed).
func (m *Mux) DequeueBatch(ctx context.Context, max int) ([]MuxBatch, error) {
	var out []MuxBatch
	err := m.blockDequeue(ctx, func() (ok bool) {
		out, ok = m.TryDequeueBatch(max)
		return ok
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// blockDequeue is the token wait loop shared by DequeueContext and
// DequeueBatch: run attempt until it dispatches, ctx is done, or the mux
// is closed and drained. The wake-token re-arm rules live only here — on
// every exit and on every dispatch a token is re-deposited, so a
// consumed token can never be stranded on a terminating consumer and
// bursts cascade to sibling workers. When a member queue holds delayed
// entries, the wait is additionally bounded by the earliest maturity
// across the mux (a timer deposits a token), so delayed delivery works
// without any polling worker.
func (m *Mux) blockDequeue(ctx context.Context, attempt func() bool) error {
	for {
		if err := ctx.Err(); err != nil {
			m.wake() // re-arm: don't strand a consumed token on exit
			return err
		}
		if attempt() {
			// More entries may be dispatchable: cascade to siblings while
			// the caller executes these handlers.
			m.wake()
			return nil
		}
		if m.drained() {
			m.wake() // cascade: release other blocked consumers too
			return ErrMuxClosed
		}
		var timed *time.Timer
		if wake := m.nextTimerWake(); wake != math.MaxInt64 {
			d := time.Duration(wake - nowNanos())
			if d <= 0 {
				d = dispatchBackoff
			}
			timed = time.AfterFunc(d, m.wake)
		}
		select {
		case <-m.wakeCh:
		case <-ctx.Done():
		}
		if timed != nil {
			timed.Stop()
		}
	}
}

// nextTimerWake returns the earliest delayed-entry maturity across the
// member queues, or math.MaxInt64 when nothing is delayed anywhere. A
// member enqueue always deposits a wake token, so a sleeper that read a
// stale (too-late) value is woken to recompute.
func (m *Mux) nextTimerWake() int64 {
	next := int64(math.MaxInt64)
	for _, q := range m.snapshot() {
		if v := q.nextTimerWake(); v < next {
			next = v
		}
	}
	return next
}

// Dequeue blocks until an entry is dispatchable on some virtual queue, or
// the mux is closed and every queue has drained (ok=false).
func (m *Mux) Dequeue() (*Queue, *Entry, bool) {
	q, e, err := m.DequeueContext(context.Background())
	return q, e, err == nil
}

// DequeueContext blocks until an entry is dispatchable on some virtual
// queue, ctx is done, or the mux is closed and every queue has drained.
// It returns ErrMuxClosed on close+drain and ctx.Err() on cancellation;
// otherwise the entry and its owning queue (execute it with that queue's
// Run, or Complete/Release it manually).
func (m *Mux) DequeueContext(ctx context.Context) (*Queue, *Entry, error) {
	var q *Queue
	var e *Entry
	err := m.blockDequeue(ctx, func() (ok bool) {
		q, e, ok = m.TryDequeue()
		return ok
	})
	if err != nil {
		return nil, nil, err
	}
	return q, e, nil
}

// drained reports whether the mux is closed and every member queue is
// closed with nothing pending or in flight.
func (m *Mux) drained() bool {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if !closed {
		return false
	}
	for _, q := range m.snapshot() {
		if !q.closedAndDrained() {
			return false
		}
	}
	return true
}

// Close closes the mux and every member queue. Pending entries still
// dispatch; blocked Dequeue calls return once everything drains.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, q := range m.snapshot() {
		q.Close()
	}
	m.wake()
}

// MuxStats summarizes mux-level activity.
type MuxStats struct {
	Queues     int    `json:"queues"`
	Dispatched uint64 `json:"dispatched"`
}

// Stats returns mux counters (per-queue stats live on each Queue).
func (m *Mux) Stats() MuxStats {
	return MuxStats{Queues: len(m.snapshot()), Dispatched: m.dispatched.Load()}
}

// String renders a short diagnostic line.
func (s MuxStats) String() string {
	return fmt.Sprintf("queues=%d dispatched=%d", s.Queues, s.Dispatched)
}

// ServeMux runs n workers that dispatch from every virtual queue with
// round-robin fairness. Workers exit when ctx is cancelled or the mux is
// closed and drained. Worker behavior is shaped by opts (WithWorkerBatch
// makes each worker fill a batch across the member queues per blocking
// dispatch).
func ServeMux(ctx context.Context, m *Mux, n int, opts ...PoolOption) *MuxPool {
	p := &MuxPool{m: m}
	p.start(ctx, n, opts, p.worker)
	return p
}

// MuxPool controls the workers started by ServeMux. Its Workers, Stop,
// and Wait come from the same workerSet lifecycle Pool uses (see
// WorkerGroup).
type MuxPool struct {
	workerSet
	m *Mux
}

func (p *MuxPool) worker(ctx context.Context) {
	if p.batch > 1 {
		for {
			batches, err := p.m.DequeueBatch(ctx, p.batch)
			if err != nil {
				return // cancelled, or closed and drained
			}
			for _, b := range batches {
				// Per-entry lifecycle on the owning queue, panic-isolated
				// inside the batch.
				b.Queue.RunBatch(b.Entries)
			}
		}
	}
	for {
		q, e, err := p.m.DequeueContext(ctx)
		if err != nil {
			return // cancelled, or closed and drained
		}
		// Guarded execution on the owning queue: a panic becomes that
		// queue's Release (retry/dead-letter) and the worker survives.
		q.Run(e)
	}
}
