package pdq

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"time"
	"unsafe"
)

// This file holds the queue's one dispatch scan (harvestShard) and the
// batch API over it. Every dequeue is a harvest; TryDequeue,
// DequeueContext and CompleteNext's chain handoff harvest one entry.
//
// Batched dispatch amortizes the per-entry dispatch cost — a shard lock
// acquire/release, an eventcount round trip, and a claim-queue walk per
// entry — across a whole run of compatible entries: one harvest takes a
// shard's lock once and collects up to max dispatchable entries, and one
// blocking dequeue performs a single eventcount interaction for all of
// them. The paper's economics (dispatch-time synchronization only wins
// while the dispatch mechanism costs less than the handlers it orders)
// are what make this matter: with fine-grain handlers of a few hundred
// nanoseconds, per-entry locking is a constant tax batching removes.
//
// A batch is harvested in sequence order from a single shard's pending
// list, so executing its entries in slice order on one goroutine (see
// RunBatch) preserves exactly the dispatch order a per-entry consumer
// would have produced. Entries in the same batch may even share keys: an
// entry that fails the idle-key test only because an *earlier entry of
// the same batch* holds the key is still harvested, because in-batch
// order serializes the two on the executing goroutine. Outside the
// batch, those keys read as in flight until each entry is Completed or
// Released individually, so cross-consumer mutual exclusion and per-key
// enqueue-order FIFO are unchanged.

// TryDequeueBatch removes and returns up to max dispatchable entries from
// one shard in a single lock acquisition, or ok=false if nothing is
// currently dispatchable. The entries are in dispatch order: the caller
// must execute them in slice order (or hand the slice to RunBatch) and
// resolve each entry exactly once with Complete or Release. A pending
// sequential barrier bounds the harvest; an activated barrier is returned
// as a one-entry batch. max <= 1 harvests at most one entry.
func (q *Queue) TryDequeueBatch(max int) (es []*Entry, ok bool) {
	es, _ = q.harvest(max, nil)
	return es, len(es) > 0
}

// DequeueBatch blocks until at least one entry is dispatchable, then
// returns a batch of up to max entries with a single eventcount
// interaction. It returns ErrClosed once the queue is closed and fully
// drained and ctx.Err() on cancellation. DequeueBatch(ctx, 1) dispatches
// exactly what DequeueContext would (one entry per batch).
func (q *Queue) DequeueBatch(ctx context.Context, max int) ([]*Entry, error) {
	return q.blockDequeue(ctx, max, nil)
}

// harvest makes one dispatch attempt across the barrier and all shards:
// the barrier first (an activated barrier is a batch of one), then the
// shards round-robin, harvesting up to max entries from the first shard
// that yields anything. retry reports an inconclusive attempt — a shard
// or cross-shard TryLock was lost — after which the caller should rescan
// rather than sleep. buf is the caller's result buffer, as in
// harvestLocked: nil from the batch API, a one-slot stack buffer from
// the single-entry forms.
func (q *Queue) harvest(max int, buf []*Entry) (es []*Entry, retry bool) {
	if max < 1 {
		max = 1 // a dequeue always means at least one entry
	}
	if q.bar.active.Load() {
		// A sequential handler owns the machine; nothing dispatches.
		q.g.barrierStalls.Add(1)
		return nil, false
	}
	barPending := q.bar.minSeq.Load() != 0
	if barPending {
		if e, ok := q.tryActivateBarrier(); ok {
			return append(buf, e), false
		}
	}
	var start uint32
	if q.mask != 0 {
		start = q.rr.Add(1)
	}
	for i := uint32(0); i <= q.mask; i++ {
		s := &q.shards[(start+i)&q.mask]
		if s.npending.Load() == 0 {
			continue
		}
		es, r := q.harvestShard(s, max, buf)
		if len(es) > 0 {
			return es, false
		}
		retry = retry || r
	}
	if barPending {
		q.g.seqStalls.Add(1)
	}
	return nil, retry
}

// harvestShard performs the bounded associative search over one shard's
// pending lists — the per-shard analogue of the paper's dispatch-buffer
// scan — collecting every dispatchable entry until max messages are
// harvested or the search window is exhausted. Ripe delayed entries
// mature into their bands first; then the bands are walked in scheduling
// order (bandOrder: highest first, a starved band boosted to the front —
// so a batch lists higher-band entries before lower). Each band list is
// seq-ascending, so a pending sequential barrier gates a band with a
// single comparison, and order preservation across key sets falls out of
// the claim queues: a later entry overlapping any earlier pending entry's
// key cannot head that key's claim queue, whatever their bands. Expired
// entries met by the scan are dropped to the dead-letter hook instead of
// dispatched. A harvest of more than one entry adds the in-batch key
// exception described at the top of the file and, with WithCoalesce, the
// merging of identical-key runs into one entry.
//
// The shard lock is TryLock'd: a consumer never parks on a shard another
// consumer is already scanning (that consumer will dispatch whatever is
// dispatchable there). retry reports such an inconclusive skip, or a
// cross-shard TryLock failure; the caller rescans instead of sleeping.
func (q *Queue) harvestShard(s *shard, max int, buf []*Entry) (es []*Entry, retry bool) {
	if !s.mu.TryLock() {
		return nil, true
	}
	var expired []Message
	es, retry = q.harvestLocked(s, max, buf, &expired)
	s.mu.Unlock()
	q.finishExpired(expired)
	return es, retry
}

// harvestLocked is harvestShard's body. Caller holds s.mu and must pass
// the expired messages to finishExpired after unlocking. Harvested
// entries are appended to es, the caller's result buffer. A nil es marks
// the public batch API: the result slice is allocated here, and the
// batch counters and the TraceHarvest event — which mean "dequeued
// through the batch API" — apply. Single-entry callers bring a one-slot
// buffer and pay for nothing but the Entry.
//
//pdq:crossshard — holds s.mu; dispatch and expiry reach foreign shards.
func (q *Queue) harvestLocked(s *shard, max int, es []*Entry, expired *[]Message) ([]*Entry, bool) {
	batch := es == nil
	if s.in.slots != nil {
		// The prefix drain: consume whatever is already published, never
		// waiting on stragglers (an unpublished claim is an Enqueue that
		// has not returned — the scan owes it nothing).
		q.drainIntake(s, s.in.tail.Load(), false)
	}
	// The barrier gate must be read AFTER the intake drain: a drained
	// entry's seq is fetched above, so if it landed past a pending
	// barrier, the barrier's floor store is ordered before that fetch and
	// this load is guaranteed to observe the gate. Reading the gate first
	// could dispatch a just-drained post-barrier entry ahead of the
	// barrier.
	barSeq := q.bar.minSeq.Load()
	var now int64 // fetched lazily: idle scans never read the clock; the first expiry check or dispatch does
	if s.timers.len() > 0 {
		now = nowNanos()
		s.matureRipe(now)
	}
	// acquired is the set of keys taken by earlier entries of this batch
	// (see shard.conflict). A harvest of one never consults it, so it is
	// only tracked — and only reaches the heap — when max > 1.
	var acquired []Key
	// The harvest's entries live in one slab — one allocation and one GC
	// object per harvest instead of one per entry, allocated lazily at
	// the first dispatch so a gated or fully conflicted scan allocates
	// nothing. The capacity fixed at that first take is never exceeded
	// (npending counts at least every entry linked under s.mu), so
	// append never reallocates and the *Entry pointers stay valid.
	var ents []Entry
	retry, windowHit := false, false
	msgs := 0 // messages harvested: entries plus coalesced merges
	order := s.bandOrder()
	for _, b := range order {
		if msgs >= max {
			break
		}
		// The window budget is per band (as it is per shard): a higher
		// band full of order-conflicted entries must not exhaust the
		// budget before the band holding the oldest dispatchable entry
		// is reached — with nothing in flight that entry is the scan's
		// guaranteed find, the invariant that makes parking safe.
		scanned := 0
		for n := s.bands[b].head; n != nil && msgs < max; {
			if q.window > 0 && scanned >= q.window {
				windowHit = true
				break
			}
			if barSeq != 0 && n.entry.seq >= barSeq {
				// Entries at or past a pending sequential barrier's queue
				// position may not dispatch until the barrier completes;
				// the band is seq-ordered, so the rest of it is blocked
				// too (other bands may still hold earlier entries).
				break
			}
			scanned++
			next := n.next // capture: dispatch unlinks and recycles n
			if handled, r := q.expireIfDue(s, n, &now, expired); handled {
				retry = retry || r
				n = next
				continue
			}
			m := &n.entry.msg
			local := n.entry.smask == 1<<s.idx
			barge := m.Mode == ModeBarge
			kind, lost := conflictNone, false
			if local {
				// A nosync or keyless entry has an empty key set and so no
				// conflicts; a barge entry skips the claim-order check.
				if kind = s.conflict(q, m.Keys, n.entry.seq, acquired, true, barge); kind == conflictNone {
					q.acquire(s, n)
				}
			} else {
				// Cross-shard entry: the TryLock'd dispatch, with no in-batch
				// exception (foreign shards know nothing of this batch).
				kind, lost = q.tryDispatchCross(s, n)
			}
			if lost || kind != conflictNone {
				switch {
				case lost:
					retry = true
				case kind == conflictOrder:
					s.stats.orderConflicts++
				default:
					s.stats.keyConflicts++
				}
				n = next
				continue
			}
			s.creditDispatch(int(b), &n.entry, &now)
			if max > 1 && !barge {
				// A barge entry's holder may park its keys past the batch,
				// so they never join the in-batch exception.
				acquired = append(acquired, m.Keys...)
			}
			msgs++
			if ents == nil {
				// n itself is already unlinked, hence the +1.
				c := min(int(s.npending.Load())+1, max)
				ents = make([]Entry, 0, c)
				if batch {
					es = make([]*Entry, 0, c)
				}
			}
			ents = append(ents, n.entry)
			s.recycle(n) // use e from now on
			e := &ents[len(ents)-1]
			if t := s.tr; batch && t != nil && e.msg.TraceID != 0 {
				t.record(s.idx, e.msg.TraceID, TraceHarvest, e.seq, int64(len(ents)-1))
			}
			if q.coalesce && local && e.msg.Mode == ModeKeyed && e.msg.Batch != nil && e.attempt == 0 {
				// The representative already counts against max, so the
				// merge budget is the batch's remaining message capacity.
				next = q.coalesceRun(s, e, next, barSeq, &scanned, max-msgs, &now)
				msgs += len(e.extraList())
			}
			es = append(es, e)
			n = next
		}
	}
	if batch && len(es) > 0 {
		s.stats.batches++
		s.stats.batchEntries += uint64(msgs)
		if msgs > s.stats.maxBatch {
			s.stats.maxBatch = msgs
		}
	} else if len(es) == 0 && windowHit {
		s.stats.windowStalls++
	}
	return es, retry
}

// coalesceRun merges the run of pending entries immediately compatible
// with representative e — same shard, ModeKeyed, a Batch handler, first
// attempt, an identical key slice, and heading every claim queue after
// the previous merge's pops — into e, so one Batch invocation handles
// the whole run. Merged messages pop their claims and give back their
// capacity slots like any dispatch, but do not touch the in-flight
// counts: the representative's single acquisition covers the run, and
// its single Complete (or Release) resolves it. budget bounds how many
// additional messages may merge (the batch's remaining capacity);
// WithCoalesce's own limit applies on top, and a pending sequential
// barrier's gate (barSeq) stops the run exactly as it stops the
// enclosing harvest — a post-barrier message must not ride a
// pre-barrier invocation. The run walks one band's list, so merged
// messages share the representative's priority by construction; an
// expired run-mate stops the run (it must never dispatch — a later scan
// dead-letters it), and a merged deadline tightens the representative's
// to the minimum, so Entry introspection reflects the strictest member.
// Caller holds s.mu. Returns the first node not merged.
func (q *Queue) coalesceRun(s *shard, e *Entry, n *node, barSeq uint64, scanned *int, budget int, now *int64) *node {
	if q.coalesceMax > 0 && budget > q.coalesceMax-1 {
		budget = q.coalesceMax - 1
	}
	for n != nil && budget > 0 {
		if q.window > 0 && *scanned >= q.window {
			return n
		}
		if barSeq != 0 && n.entry.seq >= barSeq {
			return n
		}
		m := &n.entry.msg
		if m.Mode != ModeKeyed || n.entry.attempt != 0 ||
			!sameBatchHandler(m.Batch, e.msg.Batch) ||
			!keysEqual(m.Keys, e.msg.Keys) {
			return n
		}
		// The representative — an earlier entry of this batch — holds the
		// run's keys in flight, so only the claim-queue heads can conflict.
		if s.conflict(q, m.Keys, n.entry.seq, e.msg.Keys, true, false) != conflictNone {
			return n
		}
		if dl := n.entry.deadline; dl != 0 {
			if *now == 0 {
				*now = nowNanos()
			}
			if dl <= *now {
				return n
			}
			if e.deadline == 0 || dl < e.deadline {
				e.deadline = dl
			}
		}
		*scanned++
		next := n.next
		for _, k := range m.Keys {
			s.popClaim(k, n.entry.seq)
		}
		s.unlink(n)
		q.releaseSlot()
		s.stats.dispatched++
		if len(m.Keys) > 1 {
			s.stats.multiKeyDispatched++
		}
		s.stats.prioDispatched[m.Priority]++
		s.stats.coalesced++
		if e.extra == nil {
			e.extra = new([]Message)
		}
		*e.extra = append(*e.extra, *m)
		if t := s.tr; t != nil && m.TraceID != 0 {
			t.record(s.idx, m.TraceID, TraceCoalesce, n.entry.seq, int64(len(*e.extra)))
		}
		s.recycle(n)
		budget--
		n = next
	}
	return n
}

// sameBatchHandler reports whether two Batch handlers are the same
// function value. Merging a message into a run discards its own handler
// in favor of the representative's, so it is only sound when the two
// are literally the same — comparing function *values* (the closure
// object, not just the code pointer) means two closures of the same
// body with different captured state never merge. The common coalescing
// producer enqueues one shared handler value, which always matches.
func sameBatchHandler(a, b func(datas []any)) bool {
	return a != nil && b != nil &&
		*(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// keysEqual reports element-wise equality of two key slices. Coalescing
// requires identical slices (same keys, same order), the cheap exact
// form of "same key set" that the common produce-loop traffic satisfies.
func keysEqual(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i, k := range a {
		if b[i] != k {
			return false
		}
	}
	return true
}

// RunBatch executes a batch from TryDequeueBatch/DequeueBatch in order
// with the per-entry failure lifecycle of PR 3 preserved inside the
// batch: each handler runs under Run's recovery guard, a panicking
// handler is Released immediately — freeing only that entry's keys, with
// the queue's retry/dead-letter policy applied — and the remaining
// entries still execute. Successful entries group-commit: their
// completions are applied together when the batch finishes, taking each
// involved shard's lock once instead of once per entry (the completion
// analogue of the harvest's amortization), so their keys read as in
// flight until the whole batch has run. The input slice is not
// modified. The returned error joins the recovered *PanicErrors of
// every failed entry (nil when all succeeded). If a handler terminates
// the goroutine with runtime.Goexit (see ErrHandlerExited), the entries
// already run are completed on the way out, and the never-executed
// remainder — which did not fail and owes no retry budget — is handed
// back to the queue at the tail with its attempt counts intact (the
// messages forfeit their queue positions; on a bounded queue that
// cannot re-admit them they dead-letter with ErrHandlerExited), so no
// entry is stranded holding its keys.
func (q *Queue) RunBatch(es []*Entry) error {
	succ := make([]*Entry, 0, len(es)) // ran to completion, not yet resolved
	idx := 0                           // es[idx:] have not started
	finished := false
	defer func() {
		if finished {
			return
		}
		// Only runtime.Goexit can unwind past runHandler's recovery (and
		// runHandler Released the entry it was unwound from): resolve
		// everything else on the way out.
		q.completeBatch(succ)
		for _, e := range es[idx:] {
			q.releaseUnrun(e)
		}
	}()
	var errs []error
	for idx < len(es) {
		e := es[idx]
		idx++
		if pe := q.runHandler(e); pe != nil {
			q.g.panics.Add(1)
			q.Release(e, pe)
			errs = append(errs, pe)
			continue
		}
		succ = append(succ, e)
	}
	finished = true
	q.completeBatch(succ)
	return errors.Join(errs...)
}

// releaseUnrun resolves a dispatched entry whose handler never started
// (its batch's goroutine is unwinding under runtime.Goexit): the key
// state is freed like any release, and each message the entry carries is
// re-admitted at the tail with its attempt count intact — it did not
// fail, so the retry budget does not apply — falling back to the
// dead-letter hook only when re-admission is impossible (a bounded queue
// with no free slot, or a fresh message on a queue that closed — a
// pre-close retry re-admits as always).
func (q *Queue) releaseUnrun(e *Entry) {
	ws := q.releaseEntryState(e)
	q.g.released.Add(1)
	q.readmitOrDeadLetter(e.msg, e.attempt, e.err)
	for _, m := range e.extraList() {
		q.readmitOrDeadLetter(m, e.attempt, e.err)
	}
	q.finishInflight(ws, len(e.msg.Keys), 1)
}

// readmitOrDeadLetter gives one never-executed message back to the
// queue, dead-lettering it when the queue cannot take it back.
func (q *Queue) readmitOrDeadLetter(m Message, attempt uint32, lastErr error) {
	if q.cap > 0 && !q.tryReserveSlot() {
		q.deadLetterMsg(m, ErrHandlerExited)
		return
	}
	// enqueueReserved returns the capacity slot itself on failure.
	if q.enqueueReserved(&m, attempt, lastErr) != nil {
		q.deadLetterMsg(m, ErrHandlerExited)
	}
}

// completeBatch applies the completions of a batch's successful entries
// together: every involved shard is locked once to free all key state,
// the in-flight count retires in one step, and consumers are woken once.
// It is exactly len(es) Complete calls with the locking and waking
// amortized; the drain check and read-order guarantees are unchanged.
func (q *Queue) completeBatch(es []*Entry) {
	if len(es) == 0 {
		return
	}
	if len(es) == 1 {
		q.Complete(es[0])
		return
	}
	var mask uint64
	nkeys := 0
	for _, e := range es {
		nkeys += len(e.msg.Keys)
		if e.msg.Mode == ModeSequential {
			// Sequential entries only ever travel in batches of one, so
			// this cannot happen for a harvested batch; stay correct for
			// hand-built slices.
			for _, e := range es {
				q.Complete(e)
			}
			return
		}
		mask |= e.smask
	}
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		for _, e := range es {
			if e.smask&(1<<i) == 0 || len(e.msg.Keys) == 0 {
				continue
			}
			if !s.releaseOwned(q, e.msg.Keys) {
				s.mu.Unlock()
				panic("pdq: Complete/Release for key with no in-flight handler")
			}
		}
		s.mu.Unlock()
	}
	ws := q.shardFromMask(mask)
	ws.completed.Add(uint64(len(es)))
	if t := q.tr; t != nil {
		// The group commit bypasses per-entry Complete; traced entries
		// still owe their completion events.
		for _, e := range es {
			if e.msg.TraceID != 0 {
				t.record(q.shardFromMask(e.smask).idx, e.msg.TraceID, TraceComplete, e.seq, 0)
			}
		}
	}
	// One generation bump covers the whole batch: sleeping consumers wait
	// on the generation sum, which any single-shard bump changes. The
	// wake bound is the batch's total released keys.
	q.finishInflight(ws, nkeys, len(es))
}

// blockDequeue is the eventcount wait loop of DequeueContext and
// DequeueBatch: harvest (up to max entries into buf, as in harvest)
// until an attempt yields, ctx is done, or the queue is closed and
// drained. The generation re-check under waitMu closes the
// scan-then-sleep race, and the timed backstop bounds the window a lost
// cross-shard TryLock race (which leaves no eventcount bump behind) can
// hide a dispatchable entry. When delayed entries are pending, the park
// additionally arms a timer for the earliest maturity — the wake that
// lets WithDelay/WithNotBefore deliver on time without any polling
// consumer.
func (q *Queue) blockDequeue(ctx context.Context, max int, buf []*Entry) ([]*Entry, error) {
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	spins := 0
	for {
		g := q.wakeSum()
		es, retry := q.harvest(max, buf)
		if len(es) > 0 {
			return es, nil
		}
		if q.closed.Load() && q.confirmDrained() {
			// Cascade the termination wake: shard wakeups are bounded by
			// the event's dispatchability fan-out, so the final
			// completion may have woken only this consumer while others
			// stay parked with nothing left to wake them. Each exiting
			// consumer re-broadcasts, so close+drain reaches every
			// sleeper as a chain.
			q.waitMu.Lock()
			q.waitCond.Broadcast()
			q.waitMu.Unlock()
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		needBackstop := false
		if retry {
			// A cross-shard dispatch lost a TryLock race; the state is
			// unknown, so rescan rather than sleep on a stale generation —
			// but boundedly, falling into the eventcount sleep (with a
			// timed backstop, since the lost race may never bump it) once
			// the collisions persist.
			if spins < maxDispatchSpins {
				spins++
				runtime.Gosched()
				continue
			}
			needBackstop = true
		}
		spins = 0
		if stop == nil && ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() {
				q.waitMu.Lock()
				q.waitCond.Broadcast()
				q.waitMu.Unlock()
			})
		}
		q.waitMu.Lock()
		// Publish the waiter BEFORE re-checking the generation: a producer
		// that bumps the generation and then reads waiters == 0 is thereby
		// guaranteed (seq-cst order) that this re-check observes its bump,
		// so skipping the broadcast cannot strand us.
		q.waiters.Add(1)
		if q.wakeSum() == g {
			q.g.waits.Add(1)
			var backstop *time.Timer
			if needBackstop {
				// Armed under waitMu: the callback's own Lock cannot
				// proceed until Wait has parked this consumer (releasing
				// the mutex), so the broadcast can never fire into the
				// pre-park window and be lost.
				backstop = time.AfterFunc(dispatchBackoff, func() {
					q.waitMu.Lock()
					q.waitCond.Broadcast()
					q.waitMu.Unlock()
				})
			}
			var timed *time.Timer
			if wake := q.nextTimerWake(); wake != math.MaxInt64 {
				// A delayed entry is pending: park only until its
				// maturity (same pre-park safety as the backstop). An
				// overdue maturity that still yielded nothing — its entry
				// is key-blocked or barrier-gated — degrades to the
				// backoff cadence instead of an immediate re-fire.
				d := time.Duration(wake - nowNanos())
				if d <= 0 {
					d = dispatchBackoff
				}
				timed = time.AfterFunc(d, func() {
					q.g.timerWakeups.Add(1)
					q.waitMu.Lock()
					q.waitCond.Broadcast()
					q.waitMu.Unlock()
				})
			}
			q.waitCond.Wait()
			if backstop != nil {
				backstop.Stop()
			}
			if timed != nil {
				timed.Stop()
			}
		}
		q.waiters.Add(-1)
		q.waitMu.Unlock()
	}
}
