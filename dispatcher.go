// Package pdq implements the Parallel Dispatch Queue abstraction from
// Falsafi & Wood, "Parallel Dispatch Queue: A Queue-Based Programming
// Abstraction To Parallelize Fine-Grain Communication Protocols" (HPCA 1999).
//
// A PDQ is a single logical message queue in which every message carries a
// synchronization key set naming the group of resources its handler will
// touch. The queue performs all synchronization at dispatch time: handlers
// for messages with disjoint key sets run in parallel, handlers for
// messages with overlapping key sets run serially in enqueue order, and no
// locks or busy-waiting are needed inside handlers. Two reserved dispatch
// modes complete the model:
//
//   - Sequential: the message is a full barrier in queue order. Dispatch
//     stops, all in-flight handlers drain, the handler runs in isolation,
//     and then parallel dispatch resumes. Protocol operations that touch a
//     large resource group (e.g. page allocation in a fine-grain DSM) use
//     this mode.
//   - NoSync: the handler needs no synchronization at all and may dispatch
//     whenever a worker is free, regardless of other in-flight handlers
//     (but never overtaking an active sequential barrier).
//
// Messages are shaped by functional options:
//
//	q := pdq.New(pdq.WithShards(4), pdq.WithCapacity(1 << 16))
//	err := q.Enqueue(handler, pdq.WithKeys(from, to), pdq.WithData(amount))
//	err = q.Enqueue(audit, pdq.Sequential())
//	err = q.Enqueue(heartbeat, pdq.NoSync())
//
// The implementation mirrors the paper's hardware organization: a FIFO of
// entries, an associative "search engine" that finds the next runnable
// entry at no cost per blocked one, and per-worker dispatch. Hardware
// matches every buffered entry against the in-flight key set in parallel;
// this port keeps the match incrementally instead — every pending entry
// counts its unmet conditions (a key in flight, an earlier claimant on a
// key, a delay not yet matured), each event that meets one decrements
// exactly the entries waiting on it, and an entry whose count reaches zero
// is linked into a ready list at that instant — so a dequeue is a pop, not
// a search (shard.go). Both a low-level interface
// (TryDequeue/DequeueContext/Complete, the software analogue of the paper's
// Protocol Dispatch Register) and a high-level worker pool (Serve) are
// provided. DequeueContext and EnqueueWait integrate with context
// cancellation, and EnqueueWait converts a full queue into backpressure
// instead of an ErrFull failure.
//
// # Entry lifecycle and failure isolation
//
// A dispatched entry holds its synchronization key set (or the sequential
// barrier) from dequeue until the caller resolves it with exactly one of
// Complete (success) or Release (failure). A handler that never reaches
// either wedges every later entry overlapping its key set, so the failure
// path is part of the dispatch contract, not an afterthought: Release
// frees the key state identically to Complete but routes the entry through
// the queue's failure policy — WithRetry(n) re-enqueues it at the tail
// (fresh sequence number, Entry.Attempt incremented, Entry.Err carrying
// the failure) up to n times, after which, or immediately with no retry
// budget, the entry is handed to the WithDeadLetter hook together with its
// Message and error (default: logged via the standard log package). Serve
// and ServeMux workers execute handlers through Queue.Run, which recovers
// a handler panic into Release(e, &PanicError{...}) and keeps the worker
// alive. Manual TryDequeue/DequeueContext callers should invoke handlers
// through Run — or replicate its Complete-or-Release discipline — so a
// panicking handler cannot hold its keys forever.
//
// # Batched dispatch
//
// Every dequeue is a harvest: pops from one shard's ready lists under one
// TryLock of that shard (batch.go). A single-entry dequeue is a harvest of
// one, paying a shard-lock acquire/release and an eventcount interaction
// per entry; TryDequeueBatch and DequeueBatch amortize both across a run
// of compatible entries — one shard-lock acquisition harvests up to max
// dispatchable entries (each heading every claim queue it touches after
// the pops of the earlier entries of the same batch) — and RunBatch
// executes them in dispatch order with the per-entry Complete/Release
// lifecycle: a mid-batch panic releases only the panicking entry. Serve
// and ServeMux workers opt in with WithWorkerBatch(n). On queues built
// WithCoalesce, a harvested run of consecutive entries carrying identical
// key sets and Batch handlers (the BatchHandler enqueue option) merges
// into one entry whose Batch handler receives every payload in one
// invocation.
//
// # Scheduling
//
// Dispatch order within the synchronization rules is programmable
// (sched.go): WithPriority assigns a message to one of NumPriorities
// bands (higher bands dispatch first, with a weighted anti-starvation
// credit so lower bands always progress), WithDelay/WithNotBefore defer
// dispatch until a maturity instant (blocked consumers park with a timer
// for the earliest maturity instead of polling), and
// WithDeadline/WithTTL expire an undispatched message — it never runs
// and reaches the dead-letter hook with ErrExpired. Per-key FIFO is
// never broken by scheduling: a message still serializes behind every
// earlier-enqueued message sharing a key, whatever their bands or
// delays, so priority reorders only disjoint key sets.
//
// # Sharded dispatch core
//
// Internally the queue is a sharded dispatch core: the key space is
// partitioned across N shards (WithShards), each owning its own pending
// and ready lists, per-key records (in-flight count and claim queue), node
// pool, and lock, so
// single-key traffic to different shards never contends on a shared
// mutex. Steady-state enqueue does not even touch the shard lock: entries
// homed wholly on one shard publish into that shard's lock-free MPSC
// intake ring, and the harvesting consumer drains the ring under the lock
// it already holds for its harvest (see ring.go). A multi-key entry is
// homed on the shard of its lowest-hashing key and registers claims on
// every shard its key set touches (under those shards' locks); Sequential
// entries are a cross-shard epoch barrier that drains all shards, runs
// alone, and releases. Global enqueue-order FIFO for overlapping key sets
// is preserved by the global sequence numbers stamped on every entry. On
// the default of one shard, ready entries of one band dispatch in exact
// global enqueue order; see shard.go and barrier.go for the split.
package pdq

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Key is a synchronization key. A message carries a set of keys; handlers
// for messages with overlapping key sets are mutually exclusive and execute
// in enqueue order, while handlers for messages with disjoint key sets may
// execute concurrently. The zero key is an ordinary key with no special
// meaning.
type Key uint64

// Mode selects how an entry synchronizes with other entries.
type Mode uint8

const (
	// ModeKeyed entries serialize against entries whose key set overlaps
	// theirs. An entry with an empty key set synchronizes with nothing.
	ModeKeyed Mode = iota
	// ModeSequential entries act as a full barrier: every earlier entry
	// completes before the handler runs, the handler runs alone, and no
	// later entry dispatches until it completes.
	ModeSequential
	// ModeNoSync entries dispatch without any key synchronization.
	ModeNoSync
	// ModeBarge entries acquire their key set out of band: the entry
	// dispatches as soon as every key is free of in-flight holders,
	// exempt from the per-key claim-queue order that serializes keyed
	// entries in enqueue order. Pending keyed entries on the same keys
	// are neither blocked nor reordered among themselves — a barge entry
	// simply takes the keys at the first instant they are idle, ahead of
	// any queue position. The mode exists for distributed lock
	// acquisition (cluster remote claims), where waiting in FIFO position
	// behind entries that are themselves blocked on foreign keys couples
	// unrelated keys together and can deadlock across queues; an
	// acquisition that waits only on the keys themselves keeps the
	// cross-queue wait-for graph ordered. Under a sustained stream of
	// barge entries on a key, ordinary keyed entries on that key can be
	// delayed indefinitely; barge traffic is expected to be sparse
	// control traffic, not a data path.
	ModeBarge
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeKeyed:
		return "keyed"
	case ModeSequential:
		return "sequential"
	case ModeNoSync:
		return "nosync"
	case ModeBarge:
		return "barge"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Message is the unit of work carried by the queue. Handler receives Data
// when the dispatcher (or a manual dequeue caller) executes the message.
// Message is the queue's primary admission surface: build one with
// NewMessage (or populate the struct directly and Validate it) and admit
// it with EnqueueMessage/EnqueueMessageWait. The Enqueue/EnqueueWait
// closure shorthand builds the same Message internally; anything that
// crosses a process boundary — the pdqhttp wire form, persisted work,
// cross-node forwarding — should construct a Message explicitly so both
// paths admit identical values.
type Message struct {
	// Keys is the synchronization key set (ModeKeyed only; it must be
	// empty in the other modes). Duplicate keys are permitted and act as
	// a single key.
	Keys    []Key
	Mode    Mode
	Data    any
	Handler func(data any)

	// Batch, when non-nil, replaces Handler (a message carries exactly
	// one of the two): Run invokes it with the payloads of every message
	// merged into the entry — len(datas) == 1 unless the queue was built
	// WithCoalesce and the batch harvest merged an identical-key run (see
	// the BatchHandler enqueue option).
	Batch func(datas []any)

	// Priority is the message's scheduling band, clamped at admission to
	// [0, NumPriorities). Higher bands dispatch first; see WithPriority.
	// Sequential messages must leave it (and the two instants below)
	// zero.
	Priority int
	// NotBefore, when nonzero, defers dispatch until that instant (see
	// WithNotBefore/WithDelay).
	NotBefore time.Time
	// Deadline, when nonzero, expires the message if it has not
	// dispatched by that instant: the handler never runs and the message
	// reaches the dead-letter hook with ErrExpired (see
	// WithDeadline/WithTTL).
	Deadline time.Time

	// TraceID, when nonzero, puts the message in the lifecycle flight
	// recorder under that ID (see WithTrace and trace.go). Zero — the
	// common case — lets the admitting queue's sampler decide. The ID
	// rides the message through retries, coalescing, and cross-node
	// forwarding, so one trace follows the work wherever it goes.
	TraceID uint64
}

// Entry is a dispatched queue entry. Callers using the low-level dequeue
// interface must resolve the entry exactly once after running the handler:
// Complete on success, Release on failure (Run does this automatically).
// An *Entry, and the Keys of the Message it returns, are valid from the
// dequeue that returned it until the Complete, Release or Run* call that
// resolves it returns: resolving hands the entry's pooled slot to the next
// message (docs/INVARIANTS.md § Entry lifetime).
type Entry struct {
	msg       Message
	seq       uint64 // global enqueue sequence number, for ordering and diagnostics
	smask     uint64 // bit set of shard indexes the key set touches
	notBefore int64  // maturity instant on the scheduling clock (see clockEpoch); 0 = immediate
	deadline  int64  // expiry instant on the scheduling clock; 0 = none
	enqAt     int64  // admission instant on the scheduling clock, for the dispatch-latency histograms
	attempt   uint32 // prior failed executions (0 = first dispatch)
	inflight  bool   // dispatched and not yet resolved (see resolve)
	err       error  // error from the Release that caused this retry, if any
	node      *node  // the pooled slot the entry lives in; nil for a sequential entry

	// claims chains the entry's stake in each key it carries (shard.go):
	// its places in the claim queues while pending, its shares of the
	// in-flight counts from dispatch until Complete or Release.
	claims *claim

	// extra holds the messages coalesced behind msg (WithCoalesce harvests).
	extra []Message
}

// Message returns the message carried by the entry (the representative,
// if coalescing merged more — see Size). Its Keys are the queue's own,
// read-only and valid only as long as the entry (see Entry).
func (e *Entry) Message() Message { return e.msg }

// resolve opens every Complete and Release: it checks and clears the mark
// set at dispatch, before any key state is touched. A retired entry reads
// as not in flight, so a second resolution panics — unless its slot was
// dispatched again in between, which looks like a first resolution of the
// later message: hence the lifetime rule on Entry.
func (e *Entry) resolve() {
	if !e.inflight {
		panic("pdq: Complete/Release of an entry that is not in flight")
	}
	e.inflight = false
}

// Size returns how many messages the entry carries: 1, unless the queue
// was built WithCoalesce and the batch harvest merged an identical-key
// run into this entry. The merged messages' payloads are delivered
// together to the representative's Batch handler; one Complete (or
// Release) resolves the whole entry.
func (e *Entry) Size() int { return 1 + len(e.extra) }

// payloads collects the Data of every message the entry carries, in
// enqueue order, for a Batch handler invocation.
func (e *Entry) payloads() []any {
	datas := make([]any, 1+len(e.extra))
	datas[0] = e.msg.Data
	for i := range e.extra {
		datas[i+1] = e.extra[i].Data
	}
	return datas
}

// Seq returns the entry's enqueue sequence number. Sequence numbers are
// assigned in enqueue order starting at 1; a retried entry is re-enqueued
// with a fresh number, so its position is always its latest admission.
func (e *Entry) Seq() uint64 { return e.seq }

// Attempt returns how many times the entry has previously been dispatched
// and Released: 0 on first dispatch, n on the n-th retry.
func (e *Entry) Attempt() int { return int(e.attempt) }

// Err returns the error passed to the Release that caused this retry, or
// nil on the entry's first dispatch.
func (e *Entry) Err() error { return e.err }

// Queue is a Parallel Dispatch Queue. All methods are safe for concurrent
// use. The zero value is not usable; call New.
type Queue struct {
	cap         int
	retry       int                        // retry budget per entry (WithRetry)
	deadLetter  func(m Message, err error) // terminal failure hook (WithDeadLetter)
	coalesce    bool                       // merge identical-key Batch runs at harvest (WithCoalesce)
	coalesceMax int                        // messages per merged entry; <= 0 unbounded
	mask        uint32                     // len(shards) - 1; shard count is a power of two
	tr          *tracer                    // lifecycle flight recorder; nil = tracing off (WithTrace)
	shards      []shard                    // fixed at construction, indexed by key hash

	// solo is the mux of one this queue is dequeued through (mux.go), and
	// solo.pk the parker its consumers sleep on and its events wake: its
	// own, or for a Mux member the mux's. Written only before the queue is
	// shared.
	solo Mux

	// closed shares the read-only config lines above by design: it is
	// read on every admission but written once, so it never bounces the
	// line. The write-hot atomics below each get a cache line to
	// themselves — nextSeq and inflightAll in particular are touched by
	// every producer and every consumer, and sharing a line would make
	// each of them a false-sharing hotspot for the other.
	closed      atomic.Bool
	_           cpad
	nextSeq     atomic.Uint64 // global enqueue sequence counter
	_           cpad
	inflightAll atomic.Int64 // all in-flight handlers (any mode)
	_           cpad
	rr          atomic.Uint32 // rotates harvest start and keyless placement
	_           cpad

	bar barrier // cross-shard epoch barrier for Sequential entries

	// Bounded-capacity slot accounting (cap > 0 only). Slots are reserved
	// before any shard lock is taken and released when an entry dispatches,
	// so EnqueueWait sleeps — on space — without holding dispatch locks.
	// capUsed is on every bounded enqueue and dispatch.
	capUsed atomic.Int64
	_       cpad
	space   *parker
	idle    *parker // Drain callers, woken by the completion that empties the queue

	g globalCounters
}

// globalCounters are the queue-level stats that cannot live on one shard.
// They sit on slow or stall paths only; hot-path counters are per shard.
type globalCounters struct {
	rejected      atomic.Uint64
	barrierStalls atomic.Uint64
	seqStalls     atomic.Uint64
	crossShard    atomic.Uint64
	maxKeySet     atomic.Int64
	panics        atomic.Uint64
	released      atomic.Uint64
	retries       atomic.Uint64
	deadLettered  atomic.Uint64
	handoffs      atomic.Uint64
}

// New returns an empty queue shaped by opts.
func New(opts ...Option) *Queue { return newQueue(intakeRingSize, opts...) }

// newQueue is New with the per-shard intake ring size exposed — a power
// of two, at least 2 — for the in-package tests that keep the ring-full
// fallback hot; every queue built through New gets intakeRingSize.
func newQueue(ring int, opts ...Option) *Queue {
	cfg := config{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	n := resolveShards(cfg.shards)
	q := &Queue{
		cap:         cfg.capacity,
		retry:       cfg.retry,
		deadLetter:  cfg.deadLetter,
		coalesce:    cfg.coalesce,
		coalesceMax: cfg.coalesceMax,
		mask:        uint32(n - 1),
		shards:      make([]shard, n),
		solo:        Mux{pk: newParker(), done: ErrClosed},
		space:       newParker(),
		idle:        newParker(),
	}
	if cfg.traceRate > 0 {
		q.tr = newTracer(cfg.traceRate, cfg.traceNode, n)
	}
	for i := range q.shards {
		q.shards[i].init(uint32(i), ring)
		q.shards[i].tr = q.tr
	}
	q.solo.queues.Store(&[]*Queue{q})
	q.solo.closed.Store(true)
	return q
}

// resolveShards maps the WithShards argument to a concrete shard count:
// n <= 0 derives the count from GOMAXPROCS, and any count is rounded up to
// a power of two and capped at 64 (the shard set must fit a 64-bit mask).
func resolveShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Enqueue appends a message invoking handler(data), shaped by opts: the
// synchronization key set comes from WithKey/WithKeys, the payload from
// WithData, and the dispatch mode from Sequential or NoSync (default
// keyed). With no key options the message synchronizes with nothing.
// handler may be nil only when a BatchHandler option supplies the
// message's handler instead. Enqueue never blocks; on a full bounded
// queue it fails with ErrFull (use EnqueueWait for backpressure
// instead).
//
// Enqueue is in-process shorthand: it builds a Message (see NewMessage)
// and admits it. Work that originates outside the process — wire
// requests, replayed journals, cross-node forwards — should build the
// Message explicitly instead, with handlers resolved from a registry by
// name (see pdqhttp) rather than captured in closures.
func (q *Queue) Enqueue(handler func(data any), opts ...EnqueueOption) error {
	m, err := buildMessage(handler, opts)
	if err != nil {
		return err
	}
	return q.admit(m)
}

// EnqueueWait appends a message like Enqueue but, when the queue is at
// capacity, blocks until space frees, ctx is done, or the queue closes —
// backpressure in place of ErrFull. Calling EnqueueWait from inside a
// handler can deadlock a full queue (the handler's worker is the one that
// must drain it); handlers should use Enqueue.
func (q *Queue) EnqueueWait(ctx context.Context, handler func(data any), opts ...EnqueueOption) error {
	m, err := buildMessage(handler, opts)
	if err != nil {
		return err
	}
	return q.admitWait(ctx, m)
}

// EnqueueMessage appends m to the queue without blocking; a full bounded
// queue fails with ErrFull. This is the primary admission path — Enqueue
// is shorthand that assembles the same Message from options. The key
// slice is copied at admission, so the caller may reuse or mutate it
// freely afterwards.
func (q *Queue) EnqueueMessage(m Message) error {
	if err := checkMessage(&m); err != nil {
		return err
	}
	return q.admit(m)
}

// EnqueueMessageWait appends m, blocking for capacity as EnqueueWait does.
// Like EnqueueMessage, it copies the key slice at admission.
func (q *Queue) EnqueueMessageWait(ctx context.Context, m Message) error {
	if err := checkMessage(&m); err != nil {
		return err
	}
	return q.admitWait(ctx, m)
}

// admit performs the non-blocking admission of a validated message.
func (q *Queue) admit(m Message) error {
	if q.closed.Load() {
		return ErrClosed
	}
	if q.cap > 0 && !q.tryReserveSlot() {
		q.g.rejected.Add(1)
		return ErrFull
	}
	return q.enqueueReserved(&m, 0, nil)
}

// admitWait is admit with EnqueueWait's blocking capacity reservation.
func (q *Queue) admitWait(ctx context.Context, m Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if q.closed.Load() {
		return ErrClosed
	}
	if q.cap > 0 {
		if err := q.reserveSlotWait(ctx); err != nil {
			return err
		}
	}
	return q.enqueueReserved(&m, 0, nil)
}

// Validate checks and normalizes m exactly as admission would: exactly
// one of Handler and Batch must be set, Keys only in keyed or barge
// mode, barge requires keys, sequential messages carry no Priority or
// scheduling instants, and Priority is clamped into [0, NumPriorities).
// EnqueueMessage and EnqueueMessageWait run the same validation; calling
// Validate first lets a caller classify a bad message (see ErrorCode)
// before committing to admission — the pdqhttp server does this to map
// wire errors to HTTP statuses without touching the queue.
func (m *Message) Validate() error { return checkMessage(m) }

// checkMessage validates a caller-built message — exactly one of Handler
// and Batch, keys only in keyed mode, no scheduling on barriers — and
// normalizes it by clamping Priority into [0, NumPriorities).
func checkMessage(m *Message) error {
	if m.Handler == nil && m.Batch == nil {
		return ErrNilHandler
	}
	if m.Handler != nil && m.Batch != nil {
		return errBothHandlers
	}
	if m.Mode != ModeKeyed && m.Mode != ModeBarge && len(m.Keys) > 0 {
		// Wrap (never shadow) the sentinel so ErrorCode classifies the
		// failure while the message still names the offending mode.
		return fmt.Errorf("%w (%v)", errModeKeys, m.Mode)
	}
	if m.Mode == ModeBarge && len(m.Keys) == 0 {
		return errBargeNoKeys
	}
	if m.Mode == ModeSequential && (m.Priority != 0 || !m.NotBefore.IsZero() || !m.Deadline.IsZero()) {
		return errSequentialSched
	}
	if m.Priority < 0 {
		m.Priority = 0
	} else if m.Priority >= NumPriorities {
		m.Priority = NumPriorities - 1
	}
	return nil
}

// enqueueReserved routes a validated message (capacity slot already held
// for bounded queues) to the barrier queue or its home shard. attempt and
// lastErr carry the failure lifecycle state on the retry path (0, nil on
// first admission).
func (q *Queue) enqueueReserved(m *Message, attempt uint32, lastErr error) error {
	if t := q.tr; t != nil && m.TraceID == 0 && attempt == 0 {
		// Sampling happens here — the single admission choke point — so
		// Enqueue, EnqueueWait, and the Message forms all sample
		// identically. Retries keep (or keep lacking) the ID they
		// already carry.
		m.TraceID = t.sample()
	}
	if m.Mode == ModeSequential {
		if err := q.enqueueSequential(m, attempt, lastErr); err != nil {
			q.releaseSlot()
			return err
		}
		q.wakeGlobal()
		return nil
	}
	home, err := q.enqueueSharded(m, attempt, lastErr)
	if err != nil {
		q.releaseSlot()
		return err
	}
	q.noteKeySet(len(m.Keys))
	q.wakeShard(home, 1)
	return nil
}

// enqueueSharded admits a keyed, nosync, or barge message into its home
// shard. Entries whose key set lives wholly on one shard — the hot paths —
// ride that shard's lock-free intake ring (see ring.go); the harvesting
// consumer assigns their sequence numbers and registers their claims at
// drain time, under the same lock it already holds for the harvest. A
// multi-shard entry must join claim queues on every shard its keys touch,
// so it takes the lock path: every involved shard is locked (in index
// order) across sequence assignment so that per-key claim queues are
// joined in strictly increasing seq order — the property the whole
// cross-shard FIFO discipline rests on. Before fetching its seq
// it drains the involved shards' rings to completion, so ring entries
// published before it keep earlier sequence numbers and per-key FIFO holds
// across the two paths.
func (q *Queue) enqueueSharded(m *Message, attempt uint32, lastErr error) (*shard, error) {
	var smask uint64
	var home uint32
	if len(m.Keys) > 0 {
		best := ^uint64(0)
		for _, k := range m.Keys {
			h := mix64(uint64(k))
			smask |= 1 << (uint32(h) & q.mask)
			if h <= best {
				best = h
				home = uint32(h) & q.mask
			}
		}
	} else {
		// Keyless and nosync entries synchronize with nothing; spread them
		// round-robin so they never pile onto one shard.
		home = 0
		if q.mask != 0 {
			home = q.rr.Add(1) & q.mask
		}
		smask = 1 << home
	}
	h := &q.shards[home]
	// The one place a shard entry is constructed, ahead of the fork into
	// the two admission paths (written inline: a helper's extra call level
	// on the producer's hot path measures as ~5% of fine_disjoint). The
	// sequence number comes later, from admitNode; a refused admission
	// hands the node straight back to the pool. The claim accounting
	// re-reads the key set until resolution, so it is copied into storage
	// the node owns: inline when it fits, and then nothing is allocated.
	n := h.pool.get()
	n.home = h
	n.entry = Entry{msg: *m, smask: smask, attempt: attempt, err: lastErr, enqAt: nowNanos(), node: n}
	if len(m.Keys) > len(n.keybuf) {
		n.entry.msg.Keys = slices.Clone(m.Keys)
	} else if len(m.Keys) > 0 {
		n.entry.msg.Keys = n.keybuf[:copy(n.keybuf[:], m.Keys)]
	}
	if !m.NotBefore.IsZero() {
		n.entry.notBefore = toNanos(m.NotBefore)
	}
	if !m.Deadline.IsZero() {
		n.entry.deadline = toNanos(m.Deadline)
	}
	var err error
	if smask == 1<<home {
		err = q.enqueueIntake(h, n)
	} else {
		q.lockMask(smask)
		q.flushIntakeMask(smask)
		if attempt == 0 && q.closed.Load() {
			// Retries (attempt > 0) re-admit work that was accepted before
			// the close and may proceed; only fresh enqueues are refused.
			err = ErrClosed
		} else {
			q.admitNode(h, n, false)
		}
		q.unlockMask(smask)
	}
	if err != nil {
		h.pool.put(n)
		return nil, err
	}
	return h, nil
}

// lockMask locks every shard named in mask in ascending index order.
func (q *Queue) lockMask(mask uint64) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		q.shards[i].mu.Lock()
	}
}

// unlockMask unlocks every shard named in mask.
func (q *Queue) unlockMask(mask uint64) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		q.shards[i].mu.Unlock()
	}
}

// TryDequeue removes and returns a dispatchable entry — the oldest ready
// entry of the band served first, on the first shard that has one — or
// ok=false if none is currently dispatchable. The caller must invoke the
// entry's handler and then call Complete. TryDequeue never blocks (when
// another goroutine holds a shard's lock it may conservatively report
// nothing dispatchable).
func (q *Queue) TryDequeue() (e *Entry, ok bool) {
	// A harvest of one into a one-slot stack buffer: it allocates nothing.
	var one [1]*Entry
	if es, _ := q.harvest(1, one[:0]); len(es) > 0 {
		return es[0], true
	}
	return nil, false
}

// Dequeue blocks until an entry is dispatchable or the queue is closed and
// fully drained. It returns ok=false only on close+drain.
func (q *Queue) Dequeue() (e *Entry, ok bool) {
	e, err := q.DequeueContext(context.Background())
	return e, err == nil
}

// maxDispatchSpins bounds how many consecutive inconclusive dispatch
// attempts (shard TryLock losses) a blocking dequeue re-runs with Gosched
// before parking.
const maxDispatchSpins = 64

// dispatchBackoff is how long a retry-exhausted consumer parks before a
// forced retry. Colliding TryLocks leave no eventcount bump behind, so a
// pure generation sleep could strand consumers that each lost a race to
// the other; the timed wake guarantees a conclusive attempt instead.
const dispatchBackoff = time.Millisecond

// DequeueContext blocks until an entry is dispatchable, ctx is done, or
// the queue is closed and fully drained. It returns ErrClosed on
// close+drain and ctx.Err() on cancellation; any other return is a
// dispatched entry the caller must Complete (or Release — see Run). The
// dispatch attempt is a harvest of one, as in TryDequeue; the wait is the
// one blocking dequeue (Mux.blockDequeue), over the queue's mux of one.
func (q *Queue) DequeueContext(ctx context.Context) (*Entry, error) {
	var one [1]*Entry
	_, es, err := q.solo.blockDequeue(ctx, false, 1, one[:0], nil)
	if err != nil {
		return nil, err
	}
	return es[0], nil
}

// Complete marks a previously dequeued entry's handler as finished,
// releasing its key set (or the sequential barrier) and waking waiters.
// Its failure-path dual is Release; every dispatched entry must reach
// exactly one of the two, and neither e nor its Message's Keys may be used
// afterwards (see Entry); a second resolution the queue can detect panics.
func (q *Queue) Complete(e *Entry) { q.complete(e, false) }

// CompleteNext completes e like Complete and then attempts a chain
// handoff: it dispatches to the caller a successor this completion just
// made ready — the next claimant of a key e released, now free of every
// other condition too — or, when it made none ready, the oldest ready
// entry of the shard credited with the completion. The point is
// critical-path scheduling. When a deep per-key backlog drains through
// sleeping or otherwise slow handlers, the chain only advances when some
// consumer picks up its next link; consumers that instead wander off to
// shallower work leave the longest chain — the workload's critical path —
// idle between links. The completer is the one consumer guaranteed to be
// awake at exactly the moment the successor becomes dispatchable, and it
// knows which entry that is, so handing the chain directly to it removes
// the wake-and-pop latency from every link. An entry handed off is not
// counted among those the completion wakes consumers for.
//
// ok=false means nothing was immediately dispatchable — the caller goes
// back to its normal Dequeue loop. Sequential entries and entries that
// released no keys never hand off.
func (q *Queue) CompleteNext(e *Entry) (next *Entry, ok bool) {
	next = q.complete(e, true)
	return next, next != nil
}

// complete is the one completion body: free e's synchronization state,
// count and trace the completion, attempt the chain handoff when asked
// (see CompleteNext), retire e's node, link the entries it made ready, and
// retire the in-flight handler.
func (q *Queue) complete(e *Entry, handoff bool) (next *Entry) {
	e.resolve()
	handoff = handoff && len(e.msg.Keys) > 0 && e.msg.Mode != ModeSequential
	d := deferred{hold: handoff}
	ws := q.releaseEntryState(e, &d)
	if ws != nil {
		ws.completed.Add(1)
	} else {
		q.bar.completed.Add(1)
	}
	if t := q.tr; t != nil && e.msg.TraceID != 0 {
		t.record(q.shardFromMask(e.smask).idx, e.msg.TraceID, TraceComplete, e.seq, 0)
	}
	if handoff && !q.bar.active.Load() {
		if n := d.owed; n != nil {
			d.owed, n.owed = n.owed, nil
			d.nready-- // handed off, not woken for
			next, _ = q.take(n, false, true, &d)
		}
		if next == nil {
			var one [1]*Entry
			if es, _ := q.harvestShard(ws, 1, one[:0]); len(es) > 0 {
				next = es[0]
			}
		}
		if next != nil {
			q.g.handoffs.Add(1)
			if t := q.tr; t != nil && next.msg.TraceID != 0 {
				// The handoff event belongs to the claimed successor; Arg
				// carries the completer's seq so the analyzer can stitch
				// chain critical paths link to link.
				t.record(ws.idx, next.msg.TraceID, TraceHandoff, next.seq, int64(e.seq))
			}
		}
	}
	q.retire(e)
	q.settle(ws, &d, 1)
	return next
}

// retire returns a resolved entry's node (a sequential entry has none) to
// its home shard's pool; e must not be read afterwards. It runs ahead of
// the in-flight count's drop, so an idle queue's nodes are all pooled.
func (q *Queue) retire(e *Entry) {
	if n := e.node; n != nil {
		n.home.pool.put(n)
	}
}

// releaseEntryState frees the synchronization state a dispatched entry
// holds — its share of its keys' in-flight counts, or the active
// sequential barrier — and returns the shard credited with the event
// (nil for sequential entries). It is the half of completion shared by
// Complete and Release; neither counting nor waking happens here. d
// collects the ready-list links of the entries the freed keys unblocked.
func (q *Queue) releaseEntryState(e *Entry, d *deferred) *shard {
	if e.msg.Mode == ModeSequential {
		q.completeBarrier()
		return nil
	}
	// One owning shard's lock at a time — the inverse of acquire. Each key
	// that goes idle unblocks the entries waiting on it (shard.unblock).
	for m := e.smask; m != 0 && e.claims != nil; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		s.releaseOwned(e, d)
		s.mu.Unlock()
	}
	return q.shardFromMask(e.smask)
}

// finishInflight retires n in-flight handlers that resolved together
// (one, outside a batch): it drops the global in-flight count, wakes a
// Drain that was waiting on it, and wakes as many consumers as the
// event made entries ready (nready), scoped to ws when it is
// shard-local. An event that made nothing ready wakes nobody — unless it
// emptied the machine while a sequential barrier waits to activate or a
// closed queue's consumers wait to learn it drained, which only a
// consumer's own look can discover.
func (q *Queue) finishInflight(ws *shard, nready, n int) {
	if q.inflightAll.Add(-int64(n)) == 0 {
		q.wakeDrain()
		if q.bar.minSeq.Load() != 0 || q.closed.Load() {
			ws = nil
		}
	}
	switch {
	case ws == nil:
		q.wakeGlobal()
	case nready > 0:
		q.wakeShard(ws, nready)
	}
}

// shardFromMask picks the representative shard (lowest index) of a shard
// bit set, defaulting to shard 0 for entries with no recorded mask.
func (q *Queue) shardFromMask(mask uint64) *shard {
	if mask == 0 {
		return &q.shards[0]
	}
	return &q.shards[bits.TrailingZeros64(mask)]
}

// Close prevents further enqueues. Pending entries still dispatch; blocked
// Dequeue calls return ok=false once the queue drains.
func (q *Queue) Close() {
	q.closed.Store(true)
	q.space.wakeAll()
	q.wakeGlobal()
}

// Drain blocks until the queue holds no pending entries and no handler is
// in flight. It does not close the queue; new work may arrive afterwards.
// Delayed entries (WithDelay/WithNotBefore) count as pending: Drain waits
// for them to mature and dispatch — it never flushes or abandons them —
// so a Drain over a long delay blocks for that long, and consumers must
// keep serving the queue for it to return. Dead-letter hooks owed by
// expired entries complete before Drain returns.
func (q *Queue) Drain() {
	busy := func() bool { return !q.isIdle() }
	for busy() {
		q.idle.park(context.Background(), busy, false, math.MaxInt64)
	}
}

// wakeDrain wakes the parked Drain callers if the queue is idle. Every
// event that can leave it idle calls this after making itself visible: a
// completion or expiry that took the in-flight count to zero, and a
// refused ring admission backing its pending count out. With no Drain
// parked it costs one atomic load; a Drain woken into a busy queue parks
// again (docs/INVARIANTS.md § Wake protocol).
func (q *Queue) wakeDrain() {
	if q.idle.waiters.Load() > 0 && q.isIdle() {
		q.idle.wake(math.MaxInt)
	}
}

// wakeShard publishes a dispatchability change scoped to one shard (its
// enqueues or key releases): it advances the shard's eventcount generation
// and wakes up to n sleeping consumers, where n is how many entries the
// event made dispatchable — one per enqueued entry (which a consumer must
// at least drain from the intake ring), and for a completion exactly the
// entries its released keys made ready. When most of the queue is
// key-blocked behind slow handlers, waking more than that turns the idle
// consumers into a thundering herd on a core the critical chain needs
// (why exactness strands nothing: docs/INVARIANTS.md § Wake protocol).
func (q *Queue) wakeShard(s *shard, n int) {
	s.wakeGen.Add(1)
	q.solo.pk.wake(n)
}

// wakeGlobal publishes a queue-wide dispatchability change (barrier
// traffic, close).
func (q *Queue) wakeGlobal() { q.solo.pk.wakeAll() }

// totalPending counts undispatched entries across all shards plus queued
// sequential barriers.
func (q *Queue) totalPending() int64 {
	n := q.bar.npending.Load()
	for i := range q.shards {
		n += q.shards[i].npending.Load()
	}
	return n
}

// isIdle reports that nothing is pending and nothing is in flight. The
// read order matters: dispatch increments inflightAll BEFORE it
// decrements a shard's pending count, so reading pending first and
// in-flight second can never observe an entry mid-dispatch as absent
// from both — if the pending read missed it, the in-flight read sees it
// (or it already completed, in which case that Complete re-runs the
// check). The reverse order has no such guarantee.
func (q *Queue) isIdle() bool {
	return q.totalPending() == 0 && q.inflightAll.Load() == 0
}

// confirmDrained certifies that no pending entry exists and none can
// still appear. A bare pending-count read is not enough after Close: an
// enqueuer that passed its closed re-check just before Close landed may
// hold a shard (or the barrier) lock with its entry not yet linked and
// its pending count not yet bumped. Sweeping every lock serializes
// behind any such enqueuer — everything that was admitted is linked and
// counted by the time the sweep finishes — and closed is sticky, so no
// new enqueue can be admitted afterwards. Only the closed exit paths
// call this; it is never on the dispatch hot path.
func (q *Queue) confirmDrained() bool {
	if q.totalPending() != 0 {
		return false
	}
	for i := range q.shards {
		q.shards[i].mu.Lock()
		//lint:ignore SA2001 lock-sweep barrier against in-flight enqueues
		q.shards[i].mu.Unlock()
	}
	q.bar.mu.Lock()
	//lint:ignore SA2001 lock-sweep barrier against in-flight enqueues
	q.bar.mu.Unlock()
	return q.totalPending() == 0
}

// Len returns the number of pending (undispatched) entries.
func (q *Queue) Len() int {
	return int(q.totalPending())
}

// InFlight returns the number of dispatched-but-incomplete handlers.
func (q *Queue) InFlight() int {
	return int(q.inflightAll.Load())
}

// Cap returns the queue's admission capacity (WithCapacity), 0 for
// unbounded. Len()/Cap() is the occupancy signal overload controllers
// key on (see pdqhttp.Admission).
func (q *Queue) Cap() int {
	return q.cap
}

// Shards returns the resolved shard count of the dispatch core (see
// WithShards). Sizing a worker pool at or above this number lets every
// shard dispatch concurrently.
func (q *Queue) Shards() int {
	return len(q.shards)
}

// tryReserveSlot claims one capacity slot without blocking (cap > 0 only).
func (q *Queue) tryReserveSlot() bool {
	for {
		u := q.capUsed.Load()
		if u >= int64(q.cap) {
			return false
		}
		if q.capUsed.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

// reserveSlotWait claims one capacity slot, sleeping on q.space while the
// queue is full. Close and ctx wake every sleeper; so does each freed slot
// (releaseSlot) — a woken producer that leaves without the slot, or loses
// it to a non-blocking Enqueue, must not have used up the only wake.
func (q *Queue) reserveSlotWait(ctx context.Context) error {
	if q.tryReserveSlot() {
		return nil
	}
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, q.space.wakeAll)()
	}
	full := func() bool { return q.capUsed.Load() >= int64(q.cap) && !q.closed.Load() }
	for {
		if q.closed.Load() {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if q.tryReserveSlot() {
			return nil
		}
		q.space.park(ctx, full, false, math.MaxInt64)
	}
}

// releaseSlot returns one capacity slot when an entry dispatches (pending
// shrinks before Complete). It runs on every bounded-queue dispatch — from
// under a shard lock in the harvest — and with nobody blocked in
// EnqueueWait costs one atomic add and one load.
func (q *Queue) releaseSlot() {
	if q.cap > 0 {
		q.capUsed.Add(-1)
		q.space.wake(math.MaxInt)
	}
}
