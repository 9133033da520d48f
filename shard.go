package pdq

import (
	"math"
	"sync"
	"sync/atomic"
)

// shard is one partition of the sharded dispatch core. Each shard owns
// the entries homed on it — one seq-ordered pending list of all of them,
// one ready list per priority band of those that may dispatch now, and
// the timer heap of immature delayed ones — the per-key records of the
// keys it owns, an MPSC intake ring producers publish into without the
// lock (see ring.go), a node pool, and its own lock, so single-key
// traffic to different shards never contends.
//
// Dispatch is a pop (see the package doc): every pending entry carries a
// count of unmet conditions (node.state), each event that can meet one —
// a key going idle, a claim queue's head leaving, a delay maturing —
// decrements the count of exactly the entries waiting on it, and the
// entry whose count reaches zero is linked into its band's ready list at
// that instant.
//
// Layout is deliberate: the mutex-guarded consumer state (lists, credit,
// key table, stats — including the per-band credit counters, which only
// the harvesting consumer touches) sits together at the top, while every
// atomic that crosses the producer/consumer boundary gets a cache line of
// its own below, so producers hammering npending or the eventcount never
// invalidate the line a harvesting consumer is reading (false sharing).
type shard struct {
	mu      sync.Mutex
	idx     uint32
	tr      *tracer                  // back-reference to the queue's flight recorder; nil = tracing off
	pending entryList                // every entry homed here, delayed included, seq-ascending
	ready   [NumPriorities]readyList // dispatchable entries, oldest first per band
	credit  [NumPriorities]uint32    // anti-starvation credits (see creditDispatch)
	timers  nodeHeap                 // the immature delayed entries, by maturity

	keys       map[Key]*keyRec // record of every owned key that is in flight or claimed
	freeRecs   *keyRec         // recycled records, chained through keyRec.next
	freeClaims *claim          // recycled claims, chained through claim.next
	// The free lists' lengths, capped (nodePoolSize, maxFreeClaims): a
	// burst's surplus goes to the GC, not pinned for the queue's lifetime.
	nfreeRecs, nfreeClaims int

	stats shardCounters

	// Cross-thread hot state, one cache line each (the //pdq:isolated
	// markers make pdqvet's atomicpad analyzer verify the spacing).
	_ cpad
	//pdq:isolated
	npending atomic.Int64 // entries homed here (intake ring included), readable without mu
	_        cpad
	//pdq:isolated
	minSeq atomic.Uint64 // min pending seq (delayed included); MaxUint64 when empty
	_      cpad
	//pdq:isolated
	nextMature atomic.Int64 // earliest maturity instant; MaxInt64 when nothing is delayed
	_          cpad
	//pdq:isolated
	wakeGen atomic.Uint64 // this shard's slice of the consumer eventcount
	_       cpad
	//pdq:isolated
	completed atomic.Uint64 // Complete calls credited to this shard
	_         cpad

	in   intake    // lock-free producer intake ring
	pool epochPool // lock-free node recycling across the producer/consumer boundary
}

// shardCounters are the per-shard slice of Stats, guarded by shard.mu and
// summed by Queue.Stats.
type shardCounters struct {
	enqueued           uint64
	dispatched         uint64
	noSyncDispatched   uint64
	bargeDispatched    uint64
	multiKeyDispatched uint64
	keyConflicts       uint64 // entries admitted behind an in-flight key
	orderConflicts     uint64 // entries admitted behind an earlier claimant only
	batches            uint64 // successful batch harvests from this shard
	batchEntries       uint64 // messages those harvests dispatched (coalesced included)
	coalesced          uint64 // messages merged beyond their run's representative
	expired            uint64 // entries dropped undispatched at their deadline
	delayed            uint64 // entries admitted with a future maturity
	prioDispatched     [NumPriorities]uint64
	latency            [NumPriorities]LatencyHistogram // dispatch latency per band (see Stats.BandLatency)
	maxPending         int
	maxBatch           int // largest harvest from this shard, in messages
}

func (s *shard) init(idx uint32, ring int) {
	s.idx = idx
	s.keys = make(map[Key]*keyRec)
	s.minSeq.Store(math.MaxUint64)
	s.nextMature.Store(math.MaxInt64)
	s.in.init(ring)
	s.pool.init(nodePoolSize)
}

// node is a message's one home in the queue: pending, then handed to the
// consumer in place (&n.entry), then retired to its home shard's pool by
// the Complete or Release that resolves the entry (Queue.retire).
// Hand-rolled lists avoid container/list's interface boxing on this hot path.
type node struct {
	entry      Entry
	keybuf     [inlineKeys]Key // storage of entry.msg.Keys when the set fits (see enqueueSharded)
	home       *shard          // the shard whose lists and pool the node lives in
	prev, next *node           // pending-list links, guarded by home.mu

	// state is the entry's dispatchability: the low bits count its unmet
	// conditions — one per key that is in flight or claimed by an earlier
	// entry, one while a delay has not matured — and readyBit says its
	// ready-list link is spoken for. Each condition moves under the lock
	// of the shard owning it (a key's owner; home for maturity), which
	// for a cross-shard entry is not one lock, so the word is atomic.
	state    atomic.Uint32
	immature bool // on the timer heap; guarded by home.mu

	chain *node // next entry of the band's ready FIFO (see readyList); guarded by home.mu
	owed  *node // next node whose ready-list link the same goroutine owes (see deferred)
}

// inlineKeys is the largest key set a node stores itself; maxFreeClaims, a
// claim per inline key of a pool's worth of nodes (a list as short as the
// node pool runs dry whenever a backlog of key sets swings: docs/PERF.md).
const inlineKeys, maxFreeClaims = 4, 4 * nodePoolSize

// readyBit marks a node.state whose ready-list link is made, owed by the
// goroutine that set it, or held by a dispatch attempt in progress.
const readyBit = 1 << 31

// block records that one of n's met conditions no longer holds (a barge
// entry took a key n had counted free). A ready-linked n stays linked —
// nothing leaves a ready list from the middle — and the pop that meets it
// finds the count nonzero and drops the link.
func (n *node) block() { n.state.Add(1) }

// unblock retires one unmet condition of n and reports whether that was
// the last (ready). If it was and n had no ready-list link, readyBit was
// set in the same step and the link (made under home.mu) is the caller's
// to make: nobody else will link n, and — only ready-linked entries
// dispatch or expire — n cannot leave the queue before the caller has.
func (n *node) unblock() (ready, link bool) {
	for {
		st := n.state.Load()
		nw := st - 1
		if nw == 0 {
			nw = readyBit
		}
		if n.state.CompareAndSwap(st, nw) {
			return nw == readyBit, nw == readyBit && st&readyBit == 0
		}
	}
}

// keyRec is the dispatch state of one key on its owning shard, present
// in shard.keys exactly while the key is in flight or claimed. Sequence
// numbers are assigned while every involved shard is locked, so
// claimants of a key join its queue in strictly increasing seq order and
// the head is always the earliest. A keyed entry may dispatch only when
// it heads the queue of every key it carries and none of them is in
// flight; a barge entry waits on the second condition alone.
type keyRec struct {
	key        Key
	owner      uint32 // index of the owning shard
	inflight   int    // handlers in flight that hold the key
	head, tail *claim // keyed claimants in enqueue order
	barge      *claim // barge entries waiting for the key to go idle
	next       *keyRec
}

// claim is one entry's stake in one key: its place in the key's claim
// queue (or barge list) while it waits, its share of the in-flight count
// from dispatch until Complete or Release. Chained from Entry.claims, so
// dispatch and completion reach each key's record without a table lookup.
type claim struct {
	n    *node   // the waiting entry; nil once it is in flight
	rec  *keyRec // the key's record on its owning shard
	next *claim  // next waiter of the key (or next free claim)
	peer *claim  // next claim of the same entry
}

// join adds n to k's claim queue, or its barge list, on owning shard s
// and reports what, if anything, stands between n and k: an in-flight
// handler, or (for a keyed entry) an earlier claimant. A key the entry
// names twice is joined once (c == nil the second time). Caller holds
// s.mu.
func (s *shard) join(n *node, k Key, barge bool) (c *claim, kind int) {
	rec := s.keys[k]
	switch {
	case rec == nil:
		if rec = s.freeRecs; rec != nil {
			s.freeRecs = rec.next
			s.nfreeRecs--
			rec.next = nil
		} else {
			rec = &keyRec{owner: s.idx}
		}
		rec.key = k
		s.keys[k] = rec
	case barge && rec.barge != nil && rec.barge.n == n, !barge && rec.tail != nil && rec.tail.n == n:
		return nil, conflictNone
	}
	if c = s.freeClaims; c != nil {
		s.freeClaims = c.next
		s.nfreeClaims--
		c.next = nil
	} else {
		c = new(claim)
	}
	c.n, c.rec = n, rec
	if rec.inflight > 0 {
		kind = conflictKey
	}
	if barge {
		c.next = rec.barge
		rec.barge = c
		return c, kind
	}
	if rec.head == nil {
		rec.head = c
	} else {
		rec.tail.next = c
		if kind == conflictNone {
			kind = conflictOrder
		}
	}
	rec.tail = c
	return c, kind
}

// leave takes waiting claim c off its key: out of the barge list, or off
// the head of the claim queue.
func (rec *keyRec) leave(c *claim, barge bool) {
	if barge {
		rec.dropBarge(c)
	} else {
		rec.popHead(c)
	}
}

// popHead removes c, which must head its key's claim queue: entries
// leave the queues only by dispatching, expiring or merging into a
// coalesced run, all of which require heading them.
func (rec *keyRec) popHead(c *claim) {
	if rec.head != c {
		panic("pdq: claim queue out of order")
	}
	rec.head = c.next
	if rec.head == nil {
		rec.tail = nil
	}
	c.next = nil
}

// dropBarge removes c from its key's barge list (barge traffic is sparse
// control traffic, so the list is short).
func (rec *keyRec) dropBarge(c *claim) {
	for p := &rec.barge; *p != nil; p = &(*p).next {
		if *p == c {
			*p = c.next
			c.next = nil
			return
		}
	}
	panic("pdq: barge claim missing from its key")
}

// freeClaim recycles a claim that has left its queue and its entry.
// Caller holds s.mu, s the claim's key owner.
func (s *shard) freeClaim(c *claim) {
	*c = claim{}
	if s.nfreeClaims < maxFreeClaims {
		c.next, s.freeClaims = s.freeClaims, c
		s.nfreeClaims++
	}
}

// reap drops rec from the key table once nothing holds or awaits its
// key. Caller holds s.mu.
func (s *shard) reap(rec *keyRec) {
	if rec.inflight != 0 || rec.head != nil || rec.barge != nil {
		return
	}
	delete(s.keys, rec.key)
	if s.nfreeRecs < nodePoolSize {
		rec.next, s.freeRecs = s.freeRecs, rec
		s.nfreeRecs++
	}
}

// deferred is what a locked section owes once its shard locks drop (see
// settle).
type deferred struct {
	// owed chains, through node.owed, the nodes whose ready-list link this
	// goroutine owns (see node.unblock) but could not make, their home
	// shard's lock not being held. The owner of a link is the only one to
	// touch that field, so the chain needs no lock — and it is not
	// node.chain, because a stale link may still be coming off its list
	// under the home lock when another shard's release takes the new one.
	owed    *node
	nready  int     // entries this section made ready, linked or owed: the consumers to wake
	hold    bool    // owe even the links the held lock allows (CompleteNext takes one itself)
	expired []*node // expired entries, owed to the dead-letter hook and then to their pools
}

// unblock retires one unmet condition of n — a key s owns went idle, or n
// came to head its queue — and, if that was the last, links n ready when
// it is homed on s and leaves the link to d otherwise: the caller holds
// s.mu, n may be homed on any shard, and a shard lock's holder never
// waits for a second one (the shardlock invariant's unblock-propagation
// rule) — it moves n's atomic count and hands the link on.
//
//pdq:crossshard
func (s *shard) unblock(n *node, d *deferred) {
	ready, link := n.unblock()
	if ready {
		d.nready++
	}
	switch {
	case !link:
	case n.home == s && !d.hold:
		s.linkReady(n)
	default:
		n.owed, d.owed = d.owed, n
	}
}

// linkReady makes n's ready-list link. Caller holds s.mu, s is n's home,
// and the link is the caller's to make (see node.unblock).
func (s *shard) linkReady(n *node) {
	s.ready[n.entry.msg.Priority].push(n)
}

// settle pays what a locked section left owing in d and retires the n
// in-flight handlers it resolved: the ready-list links still owed are
// made, one home shard lock at a time; each expired message goes to the
// dead-letter hook (its in-flight hold, taken by expire, retires with
// the rest) and its node back to the pool; and as many consumers wake as
// entries became ready. Must be called with no shard lock held.
func (q *Queue) settle(ws *shard, d *deferred, n int) {
	for nd := d.owed; nd != nil; {
		next := nd.owed // once linked, nd may dispatch and be recycled
		nd.owed = nil
		nd.home.mu.Lock()
		nd.home.linkReady(nd)
		nd.home.mu.Unlock()
		nd = next
	}
	for _, n := range d.expired {
		q.deadLetterMsg(n.entry.msg, ErrExpired)
		n.home.pool.put(n)
	}
	q.finishInflight(ws, d.nready, n+len(d.expired))
}

// mix64 is the 64-bit finalizer from MurmurHash3: full-avalanche mixing so
// adjacent keys spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shardIndex maps a key to the index of its owning shard.
func (q *Queue) shardIndex(k Key) uint32 {
	return uint32(mix64(uint64(k))) & q.mask
}

// shardOf returns the shard owning k.
func (q *Queue) shardOf(k Key) *shard {
	return &q.shards[q.shardIndex(k)]
}

// Why an entry waits on a key (join), for the admission counters.
const (
	conflictNone  = iota
	conflictKey   // the key is in flight
	conflictOrder // an earlier enqueued entry claims the key
)

// admitNode gives n, homed on s, its place in the queue — the admission
// tail shared by the mutex path and the intake-ring drain. It fetches
// the entry's global sequence number, joins the claim queue (or barge
// list) of every key on its owning shard, counts the conditions the
// entry still waits on, and links it into the pending list — and, when
// it waits on nothing, into its band's ready list. Caller holds the lock
// of every shard in the entry's smask across the call, so each claim
// queue is joined in strictly increasing seq order — the property the
// whole cross-shard FIFO discipline rests on — and the pending list
// stays seq-ascending.
//
// ring is true when the entry arrived through the intake ring: its
// producer already added it to npending at admission time (the count is
// what makes ring entries visible to Drain and the consumers' shard-skip
// check before they are drained), so linking must not re-add it, and its
// TraceEnqueue was recorded at publish.
func (q *Queue) admitNode(s *shard, n *node, ring bool) {
	e := &n.entry
	m := &e.msg
	e.seq = q.nextSeq.Add(1)
	barge := m.Mode == ModeBarge
	local := e.smask == 1<<s.idx
	var unmet uint32
	kind := conflictNone
	for _, k := range m.Keys {
		o := s
		if !local {
			o = q.shardOf(k)
		}
		c, why := o.join(n, k, barge)
		if c == nil {
			continue
		}
		c.peer = e.claims
		e.claims = c
		if why != conflictNone {
			unmet++
			if why == conflictKey || kind == conflictNone {
				kind = why
			}
		}
	}
	switch kind {
	case conflictKey:
		s.stats.keyConflicts++
	case conflictOrder:
		s.stats.orderConflicts++
	}
	if t := s.tr; t != nil && m.TraceID != 0 {
		kind := TraceEnqueue
		if ring {
			kind = TraceRingDrain
		}
		t.record(s.idx, m.TraceID, kind, e.seq, 0)
		if !barge && len(m.Keys) > 0 {
			t.record(s.idx, m.TraceID, TraceClaimJoin, e.seq, int64(len(m.Keys)))
		}
	}
	if e.notBefore != 0 {
		// Scheduled delivery: maturity is one more condition, retired by
		// matureRipe. The entry keeps its claim-queue positions while it
		// sleeps, and its place in the pending list keeps the shard's
		// minimum pending seq — which gates Sequential barriers — covering
		// it. An already-ripe NotBefore still takes this path (the next
		// harvest's matureRipe retires it at once): routing by the option
		// rather than by a clock read keeps the delayed counter the same
		// on the mutex and intake-ring admission paths.
		unmet++
		n.immature = true
		s.timers.push(e.notBefore, n)
		s.nextMature.Store(s.timers.nextMature())
		s.stats.delayed++
	}
	if s.pending.append(n) {
		s.updateMinSeq()
	}
	if unmet == 0 {
		n.state.Store(readyBit)
		s.linkReady(n)
	} else {
		n.state.Store(unmet)
	}
	var p int64
	if ring {
		p = s.npending.Load()
	} else {
		p = s.npending.Add(1)
	}
	if int(p) > s.stats.maxPending {
		s.stats.maxPending = int(p)
	}
	s.stats.enqueued++
}

// unlink removes n from the pending list. Caller holds s.mu.
func (s *shard) unlink(n *node) {
	if s.pending.remove(n) {
		s.updateMinSeq()
	}
	s.npending.Add(-1)
}

// releaseOwned releases the claims of e on keys s owns, unchaining them
// from e as it goes (a freed claim may be reused at once by an admission
// on s, so a later shard's pass must not walk through it). A key whose
// in-flight count reaches zero is idle: its claim queue's head and every
// barge entry waiting on it lose that condition. Caller holds s.mu.
//
//pdq:crossshard — the entries it unblocks may be homed on any shard.
func (s *shard) releaseOwned(e *Entry, d *deferred) {
	for p := &e.claims; *p != nil; {
		c := *p
		rec := c.rec
		if rec.owner != s.idx {
			p = &c.peer
			continue
		}
		*p = c.peer
		s.freeClaim(c)
		if rec.inflight--; rec.inflight > 0 {
			continue
		}
		if h := rec.head; h != nil {
			s.unblock(h.n, d)
		}
		for b := rec.barge; b != nil; b = b.next {
			s.unblock(b.n, d)
		}
		s.reap(rec)
	}
}

// acquire takes ready entry n, homed on s, into flight: each claim
// leaves its queue and becomes a share of its key's in-flight count, the
// entry leaves the pending list, and its capacity slot returns. A key
// going from idle to held is a condition lost by the other entries that
// had counted it free: the barge entries waiting on it and, when the
// taker is itself a barge entry, the claim queue's head. inflightAll
// rises BEFORE the unlink drops npending — the order isIdle's reads
// depend on. Caller holds the lock of every shard in the entry's smask
// and has taken n off the ready list.
func (q *Queue) acquire(s *shard, n *node) {
	e := &n.entry
	e.inflight = true
	barge := e.msg.Mode == ModeBarge
	q.inflightAll.Add(1)
	for c := e.claims; c != nil; c = c.peer {
		rec := c.rec
		c.n = nil
		rec.leave(c, barge)
		if rec.inflight++; rec.inflight > 1 {
			continue // held already, by an earlier entry of this batch
		}
		for b := rec.barge; b != nil; b = b.next {
			b.n.block()
		}
		if barge && rec.head != nil {
			rec.head.n.block()
		}
	}
	s.unlink(n)
	q.releaseSlot()
	s.stats.dispatched++
	switch {
	case e.msg.Mode == ModeNoSync:
		s.stats.noSyncDispatched++
	case barge:
		s.stats.bargeDispatched++
	}
	if len(e.msg.Keys) > 1 {
		s.stats.multiKeyDispatched++
	}
	if e.smask != 1<<s.idx {
		q.g.crossShard.Add(1)
	}
}
