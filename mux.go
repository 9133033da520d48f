package pdq

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
// The paper's virtual queues share one dispatch stage, and so do these:
// every member queue publishes its events to the mux's parker (park.go),
// and there is one blocking dequeue (blockDequeue) for a Mux of any size —
// a Queue's own DequeueContext and DequeueBatch enter it through the mux
// of one every Queue carries (Queue.solo).
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
	mu     sync.Mutex // guards names and queue-set mutation; closed is written under it
	names  map[string]*Queue
	closed atomic.Bool // no queue will join; a Queue's mux of one is born closed

	queues atomic.Pointer[[]*Queue] // copy-on-write snapshot scanned lock-free; only ever grows
	rr     atomic.Uint32            // round-robin scan start (readers wrap it)

	pk      *parker // where consumers of any member sleep; every member wakes it
	done    error   // what a blocked dequeue returns on close+drain
	partial int32   // 1 on a member queue's mux of one: its consumers serve part of what parks on pk
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
	return &Mux{names: make(map[string]*Queue), pk: newParker(), done: ErrMuxClosed}
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
	if m.closed.Load() {
		return nil, ErrMuxClosed
	}
	q := New(opts...)
	// The member parks and wakes where the mux does. Someone blocked in
	// q's own Dequeue then shares a parker with consumers of its siblings.
	q.solo.pk, q.solo.partial = m.pk, 1
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

// TryDequeue scans the virtual queues round-robin and returns the first
// dispatchable entry along with its owning queue (pass it to that queue's
// Run, or Complete/Release). ok=false means nothing is dispatchable right
// now. The scan takes no mux-wide lock, so any number of workers can
// dispatch concurrently.
func (m *Mux) TryDequeue() (q *Queue, e *Entry, ok bool) {
	var one [1]*Entry
	if q, es, _ := m.attempt(1, one[:0], nil); q != nil {
		return q, es[0], true
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
	m.attempt(max, nil, &batches)
	return batches, len(batches) > 0
}

// attempt makes one dispatch attempt over the snapshot, round-robin from
// the fairness cursor: each queue is asked for a harvest of what is left
// of max (Queue.harvest; buf as there). With all == nil the first queue
// that yields ends the attempt, and es is its harvest; otherwise every
// yield is appended to *all until max entries are collected. q is the
// last queue that yielded — nil when nothing was dispatchable — and retry
// reports that some queue's attempt was inconclusive.
func (m *Mux) attempt(max int, buf []*Entry, all *[]MuxBatch) (q *Queue, es []*Entry, retry bool) {
	qs := m.snapshot()
	n := len(qs)
	at := int(m.rr.Load())
	for i := 0; i < n; i++ {
		if at >= n {
			at = 0
		}
		cand := qs[at]
		at++
		// own is a variable of its own: what *all holds is on the heap, and
		// buf — a caller's stack slot — must not flow there through es.
		var own []*Entry
		var r bool
		if all == nil {
			es, r = cand.harvest(max, buf)
		} else if own, r = cand.harvest(max, nil); len(own) > 0 {
			*all = append(*all, MuxBatch{Queue: cand, Entries: own})
		}
		retry = retry || r
		got := len(es) + len(own)
		if got == 0 {
			continue
		}
		q = cand
		if n > 1 {
			// Fairness: resume after this queue. Concurrent dispatchers
			// race on the cursor; any of their stores is a valid resume
			// point, so a plain last-writer-wins store suffices.
			m.rr.Store(uint32(at))
		}
		if max -= got; all == nil || max <= 0 {
			break
		}
	}
	return q, es, retry
}

// blockDequeue is the one blocking dequeue: attempt (max, buf, all and the
// results are attempt's) until something dispatches, the mux is closed and
// drained (m.done), or ctx is done. watched says the caller has arranged
// for ctx's end to wake m.pk — a worker does, once for its lifetime;
// otherwise that is arranged here, before the first park. A lost shard
// TryLock leaves the state unknown, so the attempt is re-run — boundedly,
// or colliding TryLocks burn a core for as long as consumers outnumber
// shards — before parking with a timed backstop. The park is skipped if
// the generation sum moved since before the attempt, and bounded by the
// members' earliest maturity (docs/INVARIANTS.md § Wake protocol).
func (m *Mux) blockDequeue(ctx context.Context, watched bool, max int, buf []*Entry, all *[]MuxBatch) (*Queue, []*Entry, error) {
	var stop func() bool // unregisters the wake arranged here
	for spins := 0; ; {
		g := m.wakeSum()
		q, es, retry := m.attempt(max, buf, all)
		var err error
		switch {
		case q != nil:
		case m.drained():
			// Wake counts are exact, so the last completion may have woken
			// only this consumer: each one that leaves wakes the rest.
			m.pk.wakeAll()
			err = m.done
		case ctx.Err() != nil:
			// A Signal this consumer absorbed may have been for an entry
			// its inconclusive last look did not find.
			m.pk.wake(1)
			err = ctx.Err()
		case retry && spins < maxDispatchSpins:
			spins++
			runtime.Gosched()
			continue
		default:
			spins = 0
			if stop == nil && !watched && ctx.Done() != nil {
				stop = context.AfterFunc(ctx, m.pk.wakeAll)
			}
			m.pk.partial.Add(m.partial)
			m.pk.park(ctx, func() bool { return m.wakeSum() == g }, retry, m.nextTimerWake())
			m.pk.partial.Add(-m.partial)
			continue
		}
		if stop != nil {
			stop()
		}
		return q, es, err
	}
}

// wakeSum snapshots the eventcount consumers sleep on: the parker's own
// generation plus every member shard's (per shard, so producers on
// different shards do not share a cache line). It only ever grows, and any
// dispatchability change anywhere changes it, so "sum unchanged" is a safe
// sleep condition.
func (m *Mux) wakeSum() uint64 {
	g := m.pk.gen.Load()
	for _, q := range m.snapshot() {
		for i := range q.shards {
			g += q.shards[i].wakeGen.Load()
		}
	}
	return g
}

// nextTimerWake returns the earliest delayed-entry maturity across the
// member queues, or math.MaxInt64 when nothing is delayed anywhere. Every
// admission wakes a sleeper, so one that parked on a stale (too-late)
// value is woken to recompute.
func (m *Mux) nextTimerWake() int64 {
	next := int64(math.MaxInt64)
	for _, q := range m.snapshot() {
		for i := range q.shards {
			next = min(next, q.shards[i].nextMature.Load())
		}
	}
	return next
}

// drained reports whether the mux is closed and every member queue is
// closed with nothing pending.
func (m *Mux) drained() bool {
	if !m.closed.Load() {
		return false
	}
	for _, q := range m.snapshot() {
		if !q.closed.Load() || !q.confirmDrained() {
			return false
		}
	}
	return true
}

// DequeueBatch blocks until at least one entry is dispatchable on some
// virtual queue, then returns up to max entries grouped by owning queue
// (see MuxBatch), ctx is done (ctx.Err()), or the mux is closed and
// every queue has drained (ErrMuxClosed).
func (m *Mux) DequeueBatch(ctx context.Context, max int) ([]MuxBatch, error) {
	var all []MuxBatch
	_, _, err := m.blockDequeue(ctx, false, max, nil, &all)
	return all, err
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
	var one [1]*Entry
	q, es, err := m.blockDequeue(ctx, false, 1, one[:0], nil)
	if err != nil {
		return nil, nil, err
	}
	return q, es[0], nil
}

// Close closes the mux and every member queue. Pending entries still
// dispatch; blocked Dequeue calls return once everything drains.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed.Store(true)
	m.mu.Unlock()
	for _, q := range m.snapshot() {
		q.Close()
	}
	m.pk.wakeAll() // an empty mux has no member to publish the close
}

// MuxStats summarizes mux-level activity.
type MuxStats struct {
	Queues     int    `json:"queues"`
	Dispatched uint64 `json:"dispatched"`
}

// Stats returns mux counters (per-queue stats live on each Queue).
// Dispatched sums the member queues' own counts.
func (m *Mux) Stats() MuxStats {
	var s MuxStats
	for _, q := range m.snapshot() {
		s.Queues++
		s.Dispatched += q.Stats().Dispatched
	}
	return s
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
	p := new(MuxPool)
	p.start(ctx, m, n, opts)
	return p
}

// MuxPool controls the workers started by ServeMux (see WorkerGroup).
type MuxPool struct{ workerSet }
