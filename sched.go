package pdq

// Time- and priority-aware scheduling. The dispatch core decides WHO may
// run together (key sets, barriers); this file decides WHEN a pending
// entry becomes eligible and WHICH eligible entry a scan serves first:
//
//   - Priority classes: every message carries one of NumPriorities bands
//     (WithPriority; default 0, the lowest). Each shard keeps one pending
//     list per band and scans higher bands first, with a weighted
//     anti-starvation credit (creditLimit) that periodically serves a
//     starved lower band ahead of the others, so low bands always
//     progress under high-band floods. Per-key FIFO is global — the claim
//     queues know nothing of bands — so a high-band message enqueued
//     after a low-band message sharing a key still waits for it (the
//     documented cross-band inversion: priority reorders only disjoint
//     key sets).
//
//   - Delayed delivery: WithDelay/WithNotBefore park the entry in its
//     home shard's timer heap until maturity; the scan moves ripe entries
//     into their bands, and consumers sleeping in blockDequeue arm a
//     timed park for the earliest maturity instead of polling. A delayed
//     entry keeps its claims (and so its per-key queue position) while it
//     sleeps: same-key successors wait for it, Drain waits for it to
//     mature and dispatch, and a Sequential barrier enqueued after it
//     waits too. Timers are driven by the consumers — an unserved queue
//     matures nothing.
//
//   - Deadlines: WithDeadline/WithTTL mark the message as worthless after
//     an instant. An expired entry never dispatches: the scan that
//     examines it removes its claims and routes its message to the
//     dead-letter hook with ErrExpired (exactly once). Expiry is lazy —
//     detected when a scan reaches the entry, or at maturity for a
//     delayed entry — so the dead-letter call can trail the deadline.

import (
	"math"
	"math/bits"
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
// the next scan serves band b first.
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
// maturity) and at the next scan otherwise; an unserved queue matures
// nothing. A past t delivers immediately.
func WithNotBefore(t time.Time) EnqueueOption {
	return EnqueueOption{notBefore: t, hasNotBefore: true}
}

// WithDeadline marks the message worthless at t: an entry that has not
// dispatched by then never runs its handler — the scan that reaches it
// drops it and hands its Message to the dead-letter hook with ErrExpired
// (exactly once), freeing its key claims so later same-key messages
// proceed. Expiry applies to dispatch, not execution: once a handler
// starts, the deadline is moot. Detection is lazy (at the next scan that
// examines the entry, or at maturity for a delayed entry), so the
// dead-letter call can trail t. A deadline already past expires the
// message at its first scan.
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

// entryList is a doubly linked pending list (one per shard band, plus
// the delayed list), maintained in ascending seq order.
type entryList struct {
	head, tail *node
}

// append links n at the tail and reports whether it became the head.
// Valid only when n.entry.seq exceeds the tail's (enqueue under the
// shard lock, where seqs are assigned in order).
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

// insertBySeq links n at its seq position, walking from the head — a
// maturing delayed entry is usually older than everything still pending,
// so the walk is short. Reports whether n became the head.
func (l *entryList) insertBySeq(n *node) (newHead bool) {
	at := l.head
	for at != nil && at.entry.seq < n.entry.seq {
		at = at.next
	}
	if at == nil {
		return l.append(n)
	}
	n.next = at
	n.prev = at.prev
	at.prev = n
	if n.prev != nil {
		n.prev.next = n
		return false
	}
	l.head = n
	return true
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

// timerHeap orders a shard's immature delayed entries by maturity (ties
// by seq). Only push and pop-min are needed: expiry of a delayed entry
// is detected at maturity, never by plucking it from the middle.
type timerHeap struct {
	ns []*node
}

func (h *timerHeap) len() int   { return len(h.ns) }
func (h *timerHeap) top() *node { return h.ns[0] }
func (h *timerHeap) before(a, b *node) bool {
	if a.entry.notBefore != b.entry.notBefore {
		return a.entry.notBefore < b.entry.notBefore
	}
	return a.entry.seq < b.entry.seq
}

// nextMature returns the earliest maturity instant, or math.MaxInt64
// when no entry is delayed.
func (h *timerHeap) nextMature() int64 {
	if len(h.ns) == 0 {
		return math.MaxInt64
	}
	return h.ns[0].entry.notBefore
}

func (h *timerHeap) push(n *node) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.ns[i], h.ns[p]) {
			break
		}
		h.ns[i], h.ns[p] = h.ns[p], h.ns[i]
		i = p
	}
}

func (h *timerHeap) pop() *node {
	n := h.ns[0]
	last := len(h.ns) - 1
	h.ns[0] = h.ns[last]
	h.ns[last] = nil
	h.ns = h.ns[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.before(h.ns[c+1], h.ns[c]) {
			c++
		}
		if !h.before(h.ns[c], h.ns[i]) {
			break
		}
		h.ns[i], h.ns[c] = h.ns[c], h.ns[i]
		i = c
	}
	return n
}

// matureRipe moves every ripe delayed entry into its priority band (in
// seq position, keeping band lists seq-ascending). Expiry is NOT checked
// here — a matured entry whose deadline already passed is expired by the
// band scan that follows, which owns the cross-shard claim-removal
// protocol. Caller holds s.mu.
func (s *shard) matureRipe(now int64) {
	moved := false
	for s.timers.len() > 0 && s.timers.top().entry.notBefore <= now {
		n := s.timers.pop()
		s.delayed.remove(n)
		s.bands[n.entry.msg.Priority].insertBySeq(n)
		if t := s.tr; t != nil && n.entry.msg.TraceID != 0 {
			t.record(s.idx, n.entry.msg.TraceID, TraceMature, n.entry.seq, 0)
		}
		moved = true
	}
	if moved {
		s.updateMinSeq()
		s.nextMature.Store(s.timers.nextMature())
	}
}

// updateMinSeq republishes the shard's minimum pending sequence number —
// the min over every band head and the delayed-list head (all lists are
// seq-ascending). Sequential-barrier activation reads it to certify the
// pre-barrier epoch has drained, so a delayed entry must keep holding it
// down until maturity. Caller holds s.mu.
func (s *shard) updateMinSeq() {
	min := uint64(math.MaxUint64)
	for b := range s.bands {
		if h := s.bands[b].head; h != nil && h.entry.seq < min {
			min = h.entry.seq
		}
	}
	if h := s.delayed.head; h != nil && h.entry.seq < min {
		min = h.entry.seq
	}
	s.minSeq.Store(min)
}

// bandOrder returns the band scan order for one pass: normally top band
// down, but a starved band — credit at its limit and mature work pending
// — is served first. The lowest starved band wins the boost (its limit
// is the largest, so reaching it is the strongest starvation signal).
// Caller holds s.mu.
func (s *shard) bandOrder() (order [NumPriorities]uint8) {
	boost := -1
	for b := 0; b < NumPriorities-1; b++ {
		if s.bands[b].head != nil && s.credit[b] >= creditLimit(b) {
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
// own credit resets, every lower band left waiting with mature work
// accrues one credit toward its starvation boost, and the entry's
// dispatch latency — time spent dispatchable, i.e. since enqueue or
// since maturity for a delayed entry — is folded into the band's
// histogram. now is the scan's lazily fetched clock sample (0 = not yet
// read), shared so a batch harvest reads the clock once, not per entry.
// Caller holds s.mu.
func (s *shard) creditDispatch(b int, e *Entry, now *int64) {
	s.stats.prioDispatched[b]++
	if *now == 0 {
		*now = nowNanos()
	}
	base := e.enqAt
	if e.notBefore > base {
		base = e.notBefore
	}
	s.stats.latency[b].Observe(time.Duration(*now - base))
	if t := s.tr; t != nil && e.msg.TraceID != 0 {
		t.record(s.idx, e.msg.TraceID, TraceDispatch, e.seq, int64(b))
	}
	s.credit[b] = 0
	for i := 0; i < b; i++ {
		if s.bands[i].head != nil {
			s.credit[i]++
		}
	}
}

// expireIfDue applies the lazy deadline check to one scanned node,
// fetching the clock at most once per scan through *now, and removes the
// entry without dispatching it when its deadline has passed: its claims
// are deleted on every involved shard (foreign shards TryLock'd, as in
// cross-shard dispatch), the entry leaves the pending list, its capacity
// slot returns, and its message is queued for the dead-letter hook —
// which the caller runs via finishExpired after dropping the shard lock.
// The in-flight count is raised first, mirroring the dispatch protocol,
// so Drain cannot observe an idle queue while the hook is still owed.
// handled=true means the scan must skip the node: it was expired (and
// unlinked), or — retry=true — a foreign shard's lock was unavailable and
// the entry stays pending for a later attempt. Caller holds s.mu.
//
//pdq:crossshard — holds s.mu while touching foreign shards.
func (q *Queue) expireIfDue(s *shard, n *node, now *int64, expired *[]Message) (handled, retry bool) {
	e := &n.entry
	if e.deadline == 0 {
		return false, false
	}
	if *now == 0 {
		*now = nowNanos()
	}
	if e.deadline > *now {
		return false, false
	}
	var locked uint64
	for m := e.smask &^ (1 << s.idx); m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		if !q.shards[i].mu.TryLock() {
			q.unlockMask(locked)
			return true, true
		}
		locked |= 1 << i
	}
	q.inflightAll.Add(1)
	if e.msg.Mode != ModeBarge {
		// Barge entries hold no claim-queue positions to remove.
		for _, k := range e.msg.Keys {
			q.shardOf(k).removeClaim(k, e.seq)
		}
	}
	q.unlockMask(locked)
	if t := s.tr; t != nil && e.msg.TraceID != 0 {
		t.record(s.idx, e.msg.TraceID, TraceExpire, e.seq, 0)
	}
	s.unlink(n)
	q.releaseSlot()
	s.stats.expired++
	*expired = append(*expired, e.msg)
	s.recycle(n)
	return true, false
}

// finishExpired resolves the entries a scan expired: each message goes
// to the dead-letter hook with ErrExpired, then the in-flight holds
// taken by expireIfDue retire (completing a waiting Drain) and consumers
// are woken — removing an expired entry's claims can unblock same-key
// successors on any shard. Must be called with no shard lock held.
func (q *Queue) finishExpired(ms []Message) {
	if len(ms) == 0 {
		return
	}
	for _, m := range ms {
		q.deadLetterMsg(m, ErrExpired)
	}
	q.finishInflight(nil, 0, len(ms))
}

// nextTimerWake returns the earliest maturity instant across all shards,
// or math.MaxInt64 when nothing is delayed. Blocking consumers arm a
// timed park for it, so delayed entries mature without polling.
func (q *Queue) nextTimerWake() int64 {
	next := int64(math.MaxInt64)
	for i := range q.shards {
		if v := q.shards[i].nextMature.Load(); v < next {
			next = v
		}
	}
	return next
}
