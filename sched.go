package pdq

// Time- and priority-aware scheduling. The dispatch core decides WHO may
// run together (key sets, barriers); this file decides WHEN a pending
// entry becomes eligible and WHICH eligible entry a harvest serves first:
//
//   - Priority classes: every message carries one of NumPriorities bands
//     (WithPriority; default 0, the lowest). Each shard keeps one ready
//     list per band and pops higher bands first, with a weighted
//     anti-starvation credit (creditLimit) that periodically serves a
//     starved lower band ahead of the others, so low bands always
//     progress under high-band floods. Per-key FIFO is global — the claim
//     queues know nothing of bands — so a high-band message enqueued
//     after a low-band message sharing a key still waits for it (the
//     documented cross-band inversion: priority reorders only disjoint
//     key sets).
//
//   - Delayed delivery: WithDelay/WithNotBefore park the entry in its
//     home shard's timer heap until maturity; the harvest retires ripe
//     entries' maturity condition, and consumers sleeping in blockDequeue arm a
//     timed park for the earliest maturity instead of polling. A delayed
//     entry keeps its claims (and so its per-key queue position) while it
//     sleeps: same-key successors wait for it, Drain waits for it to
//     mature and dispatch, and a Sequential barrier enqueued after it
//     waits too. Timers are driven by the consumers — an unserved queue
//     matures nothing.
//
//   - Deadlines: WithDeadline/WithTTL mark the message as worthless after
//     an instant. An expired entry never dispatches: the pop that meets
//     it removes its claims and routes its message to the dead-letter
//     hook with ErrExpired (exactly once). Expiry is lazy — detected when
//     the entry, ready to dispatch, is popped — so the dead-letter call
//     can trail the deadline, by as long as the entry stays blocked.

import (
	"math"
	"time"
)

// clockEpoch anchors the package's scheduling clock. Maturity and expiry
// instants are stored and compared as nanoseconds since this anchor,
// computed through the monotonic reading when the caller's time.Time
// carries one — the same domain Go's own timers use. Scheduling through
// wall-clock nanoseconds instead would let an NTP step or slew fire a
// maturity early (or hold a deadline open late) relative to every
// monotonic observer, including the timed parks consumers arm. The
// anchor is package-global, not per queue, because a Mux compares
// maturity instants across member queues.
// Scheduling paths must read time only through the shims below;
// pdqvet's wallclock analyzer enforces it (the markers opt this package
// in and sanction the anchor's raw read).
//
//pdq:clock-discipline
//pdq:wallclock
var clockEpoch = time.Now()

// nowNanos returns the current instant on the scheduling clock. Always
// monotonic: time.Since uses the monotonic reading clockEpoch carries.
//
//pdq:wallclock — reads through the anchor's monotonic reading.
func nowNanos() int64 { return int64(time.Since(clockEpoch)) }

// schedNow returns the current instant as a time.Time on the scheduling
// clock: clockEpoch plus nowNanos, monotonic reading preserved (Add
// keeps it), so toNanos(schedNow().Add(d)) == nowNanos()+d exactly.
// Code needing "now" as a time.Time (option building, stats snapshots)
// must use this instead of time.Now(): a second raw wall-clock read
// would re-sample the clock outside the scheduling domain, and pdqvet's
// wallclock analyzer flags it.
func schedNow() time.Time { return clockEpoch.Add(time.Duration(nowNanos())) }

// toNanos places an absolute instant on the scheduling clock, through
// its monotonic reading when it has one (times built from time.Now())
// and through wall-clock difference otherwise (times parsed or
// constructed from calendar values — for those, the conversion pins the
// instant at its wall offset as of this call, exactly as handing it to
// time.Timer would). Sub saturates at ±292y rather than overflowing.
// The result is clamped away from 0, which the entry fields reserve for
// "unset"; instants in the past come out negative, which every
// comparison treats as long overdue.
func toNanos(t time.Time) int64 {
	v := int64(t.Sub(clockEpoch))
	if v == 0 {
		v = 1
	}
	return v
}

// NumPriorities is the number of priority bands. Band 0 is the default
// and lowest; band NumPriorities-1 is the most urgent. The count is
// deliberately small: protocol traffic needs "acks before bulk data",
// not a continuous urgency scale, and a fixed band count keeps the
// per-shard scheduler state a handful of list heads.
const NumPriorities = 4

// priorityCreditBase weights the anti-starvation credits. A band at
// distance d below the top band is served ahead of everything else after
// priorityCreditBase << d higher-band dispatches occur while it has
// mature work pending — geometric weighting, so lower bands yield a
// larger share of the machine to urgent traffic but are never starved.
const priorityCreditBase = 8

// creditLimit is the starvation threshold of band b: the number of
// higher-band dispatches (while b has mature pending work) after which
// the next harvest serves band b first.
func creditLimit(b int) uint32 {
	return priorityCreditBase << (NumPriorities - 1 - b)
}

// WithPriority assigns the message to priority band p (clamped to
// [0, NumPriorities)). Higher bands dispatch first; band 0 is the
// default. Anti-starvation credits guarantee lower bands a bounded share
// (see creditLimit). Priority never breaks per-key FIFO: a message still
// waits for every earlier-enqueued message sharing a key, whatever the
// bands — so priority reorders only messages with disjoint key sets.
func WithPriority(p int) EnqueueOption {
	return EnqueueOption{prio: p, hasPrio: true}
}

// WithDelay defers dispatch until d after enqueue — the relative form of
// WithNotBefore. d <= 0 delivers immediately.
func WithDelay(d time.Duration) EnqueueOption {
	return EnqueueOption{delay: d, hasDelay: true}
}

// WithNotBefore defers dispatch until t. The entry keeps its queue
// position while it sleeps: later same-key messages wait for it, and
// Drain (and any Sequential barrier enqueued after it) waits for it to
// mature and dispatch. Maturity is honored to timer precision when
// consumers are blocked (they park with a timer for the earliest
// maturity) and at the next harvest otherwise; an unserved queue matures
// nothing. A past t delivers immediately.
func WithNotBefore(t time.Time) EnqueueOption {
	return EnqueueOption{notBefore: t, hasNotBefore: true}
}

// WithDeadline marks the message worthless at t: an entry that has not
// dispatched by then never runs its handler — the pop that would have
// dispatched it drops it instead and hands its Message to the dead-letter
// hook with ErrExpired (exactly once), freeing its key claims so later
// same-key messages proceed. Expiry applies to dispatch, not execution:
// once a handler starts, the deadline is moot. Detection is lazy — at the
// pop that meets the entry once nothing else blocks it — so the
// dead-letter call can trail t, and an expired message still waits its
// turn behind earlier messages on its keys. A deadline already past
// expires the message at its first pop.
func WithDeadline(t time.Time) EnqueueOption {
	return EnqueueOption{deadline: t, hasDeadline: true}
}

// WithTTL bounds the message's pending lifetime to d after enqueue — the
// relative form of WithDeadline. d <= 0 expires it immediately. The TTL
// spans retries: a retried entry keeps its original deadline, so the
// budget bounds total queue residency, not per-attempt residency.
func WithTTL(d time.Duration) EnqueueOption {
	return EnqueueOption{ttl: d, hasTTL: true}
}

// entryList is a shard's pending list: every entry homed on it, delayed
// ones included, doubly linked in ascending seq order.
type entryList struct {
	head, tail *node
}

// append links n at the tail and reports whether it became the head.
// Admission runs under the shard lock, where seqs are assigned in order,
// so the tail is always the place.
func (l *entryList) append(n *node) (newHead bool) {
	if l.tail == nil {
		l.head, l.tail = n, n
		return true
	}
	n.prev = l.tail
	l.tail.next = n
	l.tail = n
	return false
}

// remove unlinks n and reports whether it was the head.
func (l *entryList) remove(n *node) (wasHead bool) {
	wasHead = n.prev == nil
	if wasHead {
		l.head = n.next
	} else {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
	return wasHead
}

// readyList holds one band's ready entries, oldest seq on top. Most
// entries become ready in seq order — an unobstructed one is the newest
// on its shard when admission links it — and chain into a FIFO through
// node.chain. One that arrives out of order (a completion's successor
// older than the FIFO's tail) goes to a heap instead, so no arrival
// order makes a link or a pop more than O(log ready) and the ordered
// ones cost O(1); the top is the older of the two heads. Nothing leaves
// from the middle: a link gone stale is dropped by the pop that meets it.
type readyList struct {
	head, tail *node
	late       nodeHeap
}

func (l *readyList) empty() bool { return l.head == nil && l.late.len() == 0 }

func (l *readyList) push(n *node) {
	switch {
	case l.head == nil:
		l.head, l.tail = n, n
	case n.entry.seq > l.tail.entry.seq:
		l.tail.chain = n
		l.tail = n
	default:
		l.late.push(int64(n.entry.seq), n)
	}
}

// top returns the oldest entry, or nil when there is none.
func (l *readyList) top() *node {
	n := l.late.top()
	if l.head != nil && (n == nil || l.head.entry.seq < n.entry.seq) {
		n = l.head
	}
	return n
}

// pop removes the entry top returns.
func (l *readyList) pop() {
	n := l.top()
	if n != l.head {
		l.late.pop()
		return
	}
	l.head, n.chain = n.chain, nil
}

// nodeHeap is a binary min-heap of nodes by key (ties by seq): a shard's
// immature delayed entries keyed by maturity, or a band's out-of-order
// ready entries keyed by seq. Keys sit in the slots so sifting touches no
// node. Only push and pop-min exist (expiry of a delayed entry is
// detected after maturity, never by plucking it from the middle).
type nodeHeap struct {
	it []heapItem
}

type heapItem struct {
	key int64
	n   *node
}

func (h *nodeHeap) len() int { return len(h.it) }

// top returns the minimum, or nil when the heap is empty.
func (h *nodeHeap) top() *node {
	if len(h.it) == 0 {
		return nil
	}
	return h.it[0].n
}

func (h *nodeHeap) before(i, j int) bool {
	a, b := &h.it[i], &h.it[j]
	return a.key < b.key || a.key == b.key && a.n.entry.seq < b.n.entry.seq
}

// nextMature returns the smallest key — on a timer heap the earliest
// maturity instant — or math.MaxInt64 when the heap is empty.
func (h *nodeHeap) nextMature() int64 {
	if len(h.it) == 0 {
		return math.MaxInt64
	}
	return h.it[0].key
}

func (h *nodeHeap) push(key int64, n *node) {
	h.it = append(h.it, heapItem{key, n})
	for i := len(h.it) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h.it[i], h.it[p] = h.it[p], h.it[i]
		i = p
	}
}

func (h *nodeHeap) pop() *node {
	n := h.it[0].n
	last := len(h.it) - 1
	h.it[0] = h.it[last]
	h.it[last] = heapItem{}
	h.it = h.it[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			break
		}
		h.it[i], h.it[c] = h.it[c], h.it[i]
		i = c
	}
	return n
}

// matureRipe retires the maturity condition of every ripe delayed entry:
// one whose keys are free as well joins its band's ready heap, any other
// keeps waiting on them. Expiry is NOT checked here
// — a matured entry whose deadline already passed is expired by the pop
// that meets it. Caller holds s.mu.
func (s *shard) matureRipe(now int64) {
	for s.timers.nextMature() <= now {
		n := s.timers.pop()
		n.immature = false
		if t := s.tr; t != nil && n.entry.msg.TraceID != 0 {
			t.record(s.idx, n.entry.msg.TraceID, TraceMature, n.entry.seq, 0)
		}
		if _, link := n.unblock(); link {
			s.linkReady(n)
		}
	}
	s.nextMature.Store(s.timers.nextMature())
}

// updateMinSeq republishes the shard's minimum pending sequence number,
// the head of the seq-ascending pending list. Sequential-barrier
// activation reads it to certify the pre-barrier epoch has drained; a
// delayed or key-blocked entry sits in that list like any other, so it
// holds the minimum down until it dispatches. Caller holds s.mu.
func (s *shard) updateMinSeq() {
	min := uint64(math.MaxUint64)
	if h := s.pending.head; h != nil {
		min = h.entry.seq
	}
	s.minSeq.Store(min)
}

// bandOrder returns the band pop order for one harvest: normally top band
// down, but a starved band — credit at its limit and an entry ready — is
// served first. The lowest starved band wins the boost (its limit is the
// largest, so reaching it is the strongest starvation signal). Caller
// holds s.mu.
func (s *shard) bandOrder() (order [NumPriorities]uint8) {
	boost := -1
	for b := 0; b < NumPriorities-1; b++ {
		if !s.ready[b].empty() && s.credit[b] >= creditLimit(b) {
			boost = b
			break
		}
	}
	i := 0
	if boost >= 0 {
		order[i] = uint8(boost)
		i++
	}
	for b := NumPriorities - 1; b >= 0; b-- {
		if b != boost {
			order[i] = uint8(b)
			i++
		}
	}
	return order
}

// creditDispatch records a dispatch of entry e from band b: the band's
// own credit resets, every lower band left waiting with an entry ready
// accrues one credit toward its starvation boost, and the entry's
// dispatch latency — time since enqueue, or since maturity for a delayed
// entry — is folded into the band's histogram. now is the harvest's
// lazily fetched clock sample (0 = not yet read), shared so a batch
// harvest reads the clock once, not per entry. Caller holds s.mu.
func (s *shard) creditDispatch(b int, e *Entry, now *int64) {
	s.stats.prioDispatched[b]++
	base := e.enqAt
	if e.notBefore > base {
		base = e.notBefore
	}
	s.stats.latency[b].Observe(time.Duration(clock(now) - base))
	if t := s.tr; t != nil && e.msg.TraceID != 0 {
		t.record(s.idx, e.msg.TraceID, TraceDispatch, e.seq, int64(b))
	}
	s.credit[b] = 0
	for i := 0; i < b; i++ {
		if !s.ready[i].empty() {
			s.credit[i]++
		}
	}
}

// clock returns the harvest's clock sample, reading the clock the first
// time it is needed: a harvest that pops nothing never does.
func clock(now *int64) int64 {
	if *now == 0 {
		*now = nowNanos()
	}
	return *now
}

// expire removes ready entry n, homed on s and past its deadline, without
// dispatching it: its claims leave their queues (each successor that
// thereby heads an idle key's queue is unblocked, or, inside a
// multi-entry harvest, offered to the in-batch exception), the entry
// leaves the pending list, its capacity slot returns, and the node is
// queued in d for the dead-letter hook, which the caller runs through
// settle, retiring the node, after dropping its locks. The in-flight
// count is raised first, mirroring the dispatch protocol, so Drain cannot
// observe an idle queue while the hook is still owed. Caller holds the lock
// of every shard in the entry's smask and has taken n off the ready list.
//
//pdq:crossshard — unblocks successors homed on shards whose locks are not held.
func (q *Queue) expire(s *shard, n *node, d *deferred, ib *inBatch) {
	e := &n.entry
	q.inflightAll.Add(1)
	barge := e.msg.Mode == ModeBarge
	for c := e.claims; c != nil; {
		peer, rec := c.peer, c.rec
		o := &q.shards[rec.owner]
		rec.leave(c, barge)
		if h := rec.head; h != nil && !barge {
			if rec.inflight == 0 {
				o.unblock(h.n, d)
			}
			if ib != nil {
				ib.offer(s, h.n)
			}
		}
		o.freeClaim(c)
		o.reap(rec)
		c = peer
	}
	e.claims = nil
	if t := s.tr; t != nil && e.msg.TraceID != 0 {
		t.record(s.idx, e.msg.TraceID, TraceExpire, e.seq, 0)
	}
	s.unlink(n)
	q.releaseSlot()
	s.stats.expired++
	d.expired = append(d.expired, n)
}
