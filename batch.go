package pdq

import (
	"context"
	"errors"
	"math/bits"
	"unsafe"
)

// This file holds the queue's one dispatch path (harvestLocked: pops from
// a shard's ready lists) and the batch API over it. Every dequeue is a
// harvest; TryDequeue, DequeueContext and a CompleteNext that made no
// successor ready harvest one entry.
//
// Batched dispatch amortizes the per-entry dispatch cost — a shard lock
// acquire/release and an eventcount round trip per entry — across a
// whole run of compatible entries: one harvest takes a
// shard's lock once and collects up to max dispatchable entries, and one
// blocking dequeue performs a single eventcount interaction for all of
// them. The paper's economics (dispatch-time synchronization only wins
// while the dispatch mechanism costs less than the handlers it orders)
// are what make this matter: with fine-grain handlers of a few hundred
// nanoseconds, per-entry locking is a constant tax batching removes.
//
// A batch is harvested band by band, oldest first, from a single shard's
// ready lists, so executing its entries in slice order on one goroutine (see
// RunBatch) preserves exactly the dispatch order a per-entry consumer
// would have produced. Entries in the same batch may even share keys: an
// entry that fails the idle-key test only because an *earlier entry of
// the same batch* holds the key is still harvested, because in-batch
// order serializes the two on the executing goroutine (see inBatch).
// Outside the batch, those keys read as in flight until each entry is
// Completed or Released individually, so cross-consumer mutual exclusion
// and per-key enqueue-order FIFO are unchanged. An entry whose key set
// spans shards always dispatches as a batch of one (see harvestLocked).

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
	_, es, err := q.solo.blockDequeue(ctx, false, max, nil, nil)
	return es, err
}

// harvest makes one dispatch attempt across the barrier and all shards:
// the barrier first (an activated barrier is a batch of one), then the
// shards round-robin, harvesting up to max entries from the first shard
// that yields anything. retry reports an inconclusive attempt — a shard's
// TryLock was lost — after which the caller should rescan rather than
// sleep. buf is the caller's result buffer, as in harvestLocked: nil from
// the batch API, a one-slot stack buffer from the single-entry forms.
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

// harvestShard pops up to max messages' worth of ready entries from one
// shard (see harvestLocked) and settles what the pops left owing.
//
// The shard lock is TryLock'd: a consumer never parks on a shard another
// consumer is already harvesting. retry reports such an inconclusive
// skip (or a cross-shard take that lost its entry to a barge entry); the
// caller tries again instead of sleeping.
func (q *Queue) harvestShard(s *shard, max int, buf []*Entry) (es []*Entry, retry bool) {
	if !s.mu.TryLock() {
		return nil, true
	}
	var d deferred
	es, cross := q.harvestLocked(s, max, buf, &d)
	s.mu.Unlock()
	if cross != nil {
		e, ok := q.take(cross, buf == nil, false, &d)
		if e != nil {
			es = append(buf, e)
		}
		retry = !ok
	}
	if len(d.expired) > 0 { // only an expiry leaves a harvest owing anything
		q.settle(s, &d, 0)
	}
	return es, retry
}

// harvestLocked is the queue's one dispatch path: it pops ready entries
// from s's band lists until max messages are harvested. Ripe delayed
// entries mature first; then the bands are served in scheduling order
// (bandOrder — so a batch lists higher-band entries before lower), each
// oldest-first. A ready list holds exactly the entries whose every
// condition is met, so a pop examines no blocked entry; it checks only
// what the pop alone can know: a pending sequential barrier's gate (one
// comparison per band, a band's oldest entry being on top), the deadline
// (an entry past it goes to the dead-letter hook instead), and whether
// the link went stale after it was made (a barge acquisition re-blocked
// the entry; then the link is dropped; see node.block).
//
// A cross-shard entry cannot be taken here — its other keys' owners are
// not locked, and a shard lock holder never waits for a second one — so
// it is taken off the ready list and returned, for harvestShard to take
// under all of its locks once s.mu is dropped. It dispatches alone: a
// harvest that already holds entries stops in front of it. A harvest of
// more than one entry adds the in-batch exception (inBatch) and, with
// WithCoalesce, the merging of identical-key runs (coalesceRun).
//
// Caller holds s.mu and must settle d after unlocking. Harvested entries
// are appended to es. A nil es marks the public batch API: the result
// slice is allocated here, and the batch counters and the TraceHarvest
// event apply. Single-entry callers bring a one-slot buffer and allocate
// nothing.
//
//pdq:crossshard — holds s.mu; an expiry reaches entries homed on foreign shards.
func (q *Queue) harvestLocked(s *shard, max int, es []*Entry, d *deferred) (_ []*Entry, cross *node) {
	batch := es == nil
	// The prefix drain: consume whatever is already published, never
	// waiting on stragglers (an unpublished claim is an Enqueue that has
	// not returned — the harvest owes it nothing).
	q.drainIntake(s, s.in.tail.Load(), false)
	// The barrier gate must be read AFTER the intake drain: a drained
	// entry's seq is fetched above, so if it landed past a pending
	// barrier, the barrier's floor store is ordered before that fetch and
	// this load is guaranteed to observe the gate. Reading the gate first
	// could dispatch a just-drained post-barrier entry ahead of the
	// barrier.
	barSeq := q.bar.minSeq.Load()
	var now int64 // fetched lazily: idle harvests never read the clock; the first expiry check or dispatch does
	if s.timers.len() > 0 {
		now = nowNanos()
		s.matureRipe(now)
	}
	var ibs inBatch
	var ib *inBatch // nil for a harvest of one, which has no batch to except
	if max > 1 {
		ib = &ibs
	}
	msgs := 0 // messages harvested: entries plus coalesced merges
	order := s.bandOrder()
bands:
	for _, b := range order {
		l := &s.ready[b]
		for msgs < max {
			n := l.top()
			if n == nil || barSeq != 0 && n.entry.seq >= barSeq {
				break // empty, or gated from here on (other bands may hold earlier entries)
			}
			if st := n.state.Load(); st != readyBit && !(ib != nil && ib.admits(s, n)) {
				// The link went stale: a barge entry took one of n's keys, or
				// n was linked for an earlier batch that did not reach it.
				// Whoever frees the key links n again.
				if n.state.CompareAndSwap(st, st&^readyBit) {
					l.pop()
				}
				continue
			}
			if n.entry.smask != 1<<s.idx {
				if msgs == 0 {
					l.pop() // readyBit stays set: the take in progress holds the link
					cross = n
				}
				break bands
			}
			l.pop()
			if dl := n.entry.deadline; dl != 0 && dl <= clock(&now) {
				q.expire(s, n, d, ib)
				continue
			}
			q.acquire(s, n)
			s.creditDispatch(int(b), &n.entry, &now)
			msgs++
			e := &n.entry // handed out in place: the node retires when e is resolved
			if batch && es == nil {
				// n itself is already unlinked, hence the +1.
				es = make([]*Entry, 0, min(int(s.npending.Load())+1, max))
			}
			if t := s.tr; batch && t != nil && e.msg.TraceID != 0 {
				t.record(s.idx, e.msg.TraceID, TraceHarvest, e.seq, int64(len(es)))
			}
			es = append(es, e)
			if ib == nil || e.msg.Mode != ModeKeyed {
				continue
			}
			if q.coalesce && e.msg.Batch != nil && e.attempt == 0 {
				// The representative already counts against max, so the
				// merge budget is the batch's remaining message capacity.
				msgs += q.coalesceRun(s, e, barSeq, max-msgs, &now)
			}
			ib.keys = append(ib.keys, e.msg.Keys...)
			for c := e.claims; c != nil; c = c.peer {
				if h := c.rec.head; h != nil {
					ib.offer(s, h.n)
				}
			}
		}
	}
	if batch && len(es) > 0 {
		s.stats.batches++
		s.stats.batchEntries += uint64(msgs)
		if msgs > s.stats.maxBatch {
			s.stats.maxBatch = msgs
		}
	}
	return es, cross
}

// take dispatches (or expires) ready entry n outside a harvest, under
// the lock of every shard its keys touch — taken in index order with no
// lock held, like a cross-shard admission. The caller holds n's
// ready-list link, so n is on no list and cannot have left the queue: it
// is the cross-shard entry harvestLocked handed back, or (handoff) a
// successor CompleteNext just made ready. Everything that moves n's count
// runs under one of these locks, so here the count is exact: nonzero
// means a barge entry took a key in the meantime, and n goes back to
// waiting — whoever frees that key links it again (ok=false). An entry
// gated by a sequential barrier gets its link back, and so does a
// handoff whose band must wait: it may pass over older ready entries of
// its own band (that is its point), never over a band the scheduler
// serves first. batch and d are as in harvestLocked.
func (q *Queue) take(n *node, batch, handoff bool, d *deferred) (e *Entry, ok bool) {
	s := n.home
	mask := n.entry.smask
	q.lockMask(mask)
	defer q.unlockMask(mask)
	if n.state.Load() != readyBit {
		n.state.Add(^uint32(readyBit - 1)) // clear readyBit
		return nil, false
	}
	barSeq := q.bar.minSeq.Load()
	wait := barSeq != 0 && n.entry.seq >= barSeq
	if handoff {
		for _, b := range s.bandOrder() {
			if int(b) == n.entry.msg.Priority {
				break
			}
			wait = wait || !s.ready[b].empty()
		}
	}
	var now int64
	switch dl := n.entry.deadline; {
	case wait:
		s.linkReady(n)
		d.nready++
		return nil, true
	case dl != 0 && dl <= clock(&now):
		q.expire(s, n, d, nil)
		return nil, true
	}
	q.acquire(s, n)
	s.creditDispatch(n.entry.msg.Priority, &n.entry, &now)
	e = &n.entry
	if batch {
		s.stats.batches++
		s.stats.batchEntries++
		s.stats.maxBatch = max(s.stats.maxBatch, 1)
		if t := s.tr; t != nil && e.msg.TraceID != 0 {
			t.record(s.idx, e.msg.TraceID, TraceHarvest, e.seq, 0)
		}
	}
	return e, true
}

// inBatch is the in-batch exception of one multi-entry harvest (see the
// top of the file). An entry blocked only by keys that earlier entries of
// the harvest hold can only be the claim-queue successor of one it just
// took, so that is where the harvest looks (offer); it never walks the
// blocked backlog. A successor that qualifies is linked into its band's
// ready list with its count still nonzero, so it is popped at its own seq
// position in band order exactly as if it had been ready, and the pop,
// which re-asks admits of every entry whose count is nonzero, takes it.
// One the harvest does not reach is left behind as a stale link like any
// other (see node.block). Cross-shard entries take no part — a foreign
// shard knows nothing of this batch — and neither do barge entries, whose
// holders may park their keys past the batch.
type inBatch struct {
	keys []Key // keys taken by earlier entries of this harvest
}

// offer considers n, which now heads a claim queue behind an entry the
// harvest just took (or expired), for the in-batch exception, and links
// it ready if it qualifies and is not linked (or owed its link) already.
// Caller holds s.mu, which for a qualifying n — homed wholly on s —
// guards every move of its count.
func (ib *inBatch) offer(s *shard, n *node) {
	if n.state.Load()&readyBit == 0 && ib.admits(s, n) {
		n.state.Add(readyBit)
		s.linkReady(n)
	}
}

// admits reports whether n qualifies for the in-batch exception right
// now: homed wholly on s, mature, and heading the queue of every key it
// carries with no holder outside the batch (a barge entry taken since the
// offer may hold one of its keys).
func (ib *inBatch) admits(s *shard, n *node) bool {
	if n.immature || n.entry.smask != 1<<s.idx {
		return false
	}
	for c := n.entry.claims; c != nil; c = c.peer {
		if c.rec.head != c || c.rec.inflight > 0 && !keyIn(ib.keys, c.rec.key) {
			return false
		}
	}
	return true
}

// keyIn reports whether k was acquired earlier in the batch. Batches are
// small, so a linear scan beats a map here.
func keyIn(acquired []Key, k Key) bool {
	for _, a := range acquired {
		if a == k {
			return true
		}
	}
	return false
}

// coalesceRun merges into representative e, which the harvest just took,
// the run of entries compatible with it — each in turn the claim-queue
// successor of e's keys: same band, ModeKeyed, the same Batch handler,
// first attempt, mature, an identical key slice, and heading every claim
// queue after the previous merge's pops — so one Batch invocation handles
// the whole run. Merged messages leave their claim queues and give back
// their capacity slots like any dispatch, but do not touch the in-flight
// counts: the representative's single acquisition covers the run, and
// its single Complete (or Release) resolves it. budget bounds how many
// messages may merge (the batch's remaining capacity; WithCoalesce's own
// limit applies on top), and a pending sequential barrier's gate stops
// the run as it stops the harvest — a post-barrier message must not ride
// a pre-barrier invocation. An expired run-mate stops the run (a later
// pop dead-letters it), and a merged deadline tightens the
// representative's to the minimum. Caller holds s.mu. Returns the number
// of messages merged.
func (q *Queue) coalesceRun(s *shard, e *Entry, barSeq uint64, budget int, now *int64) (merged int) {
	if q.coalesceMax > 0 && budget > q.coalesceMax-1 {
		budget = q.coalesceMax - 1
	}
	if e.claims == nil {
		return 0 // keyless: no claim queue to find a run in
	}
	for ; budget > 0; budget-- {
		h := e.claims.rec.head
		if h == nil {
			return merged
		}
		n := h.n
		m := &n.entry.msg
		if barSeq != 0 && n.entry.seq >= barSeq ||
			m.Mode != ModeKeyed || m.Priority != e.msg.Priority ||
			n.entry.attempt != 0 || n.immature || n.state.Load()&readyBit != 0 ||
			!sameBatchHandler(m.Batch, e.msg.Batch) ||
			!keysEqual(m.Keys, e.msg.Keys) {
			return merged
		}
		// The representative holds the run's keys in flight, so only the
		// claim-queue heads can stand in the way.
		for c := n.entry.claims; c != nil; c = c.peer {
			if c.rec.head != c {
				return merged
			}
		}
		if dl := n.entry.deadline; dl != 0 {
			if dl <= clock(now) {
				return merged
			}
			if e.deadline == 0 || dl < e.deadline {
				e.deadline = dl
			}
		}
		for c := n.entry.claims; c != nil; {
			peer := c.peer
			c.rec.popHead(c)
			s.freeClaim(c)
			c = peer
		}
		s.unlink(n)
		q.releaseSlot()
		s.stats.dispatched++
		if len(m.Keys) > 1 {
			s.stats.multiKeyDispatched++
		}
		s.stats.prioDispatched[m.Priority]++
		s.stats.coalesced++
		e.extra = append(e.extra, *m)
		// The merged message outlives its node, retired below: it shares
		// the representative's key slice, equal to its own.
		e.extra[len(e.extra)-1].Keys = e.msg.Keys
		if t := s.tr; t != nil && m.TraceID != 0 {
			t.record(s.idx, m.TraceID, TraceCoalesce, n.entry.seq, int64(len(e.extra)))
		}
		s.pool.put(n)
		merged++
	}
	return merged
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
	e.resolve()
	var d deferred
	ws := q.releaseEntryState(e, &d)
	q.g.released.Add(1)
	q.readmitOrDeadLetter(e.msg, e.attempt, e.err)
	for _, m := range e.extra {
		q.readmitOrDeadLetter(m, e.attempt, e.err)
	}
	q.retire(e)
	q.settle(ws, &d, 1)
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
	single := len(es) < 2
	for _, e := range es {
		// Sequential entries only ever travel in batches of one, so this
		// cannot happen for a harvested batch; stay correct for hand-built
		// slices.
		single = single || e.msg.Mode == ModeSequential
	}
	if single {
		for _, e := range es {
			q.Complete(e)
		}
		return
	}
	var mask uint64
	for _, e := range es {
		e.resolve()
		mask |= e.smask
	}
	var d deferred
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		for _, e := range es {
			if e.smask&(1<<i) != 0 {
				s.releaseOwned(e, &d)
			}
		}
		s.mu.Unlock()
	}
	ws := q.shardFromMask(mask)
	ws.completed.Add(uint64(len(es)))
	for _, e := range es {
		// The group commit bypasses per-entry Complete; traced entries
		// still owe their completion events.
		if t := q.tr; t != nil && e.msg.TraceID != 0 {
			t.record(q.shardFromMask(e.smask).idx, e.msg.TraceID, TraceComplete, e.seq, 0)
		}
		q.retire(e)
	}
	// One wake covers the whole batch, bounded by the entries its
	// released keys made ready.
	q.settle(ws, &d, len(es))
}
