package pdq

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// shard is one partition of the sharded dispatch core. Each shard owns the
// pending lists of entries homed on it (one per priority band, plus the
// timer heap of immature delayed entries), the in-flight counts and claim
// queues for the keys it owns, an MPSC intake ring producers publish into
// without the lock (see ring.go), a node pool, and its own lock, so
// single-key traffic to different shards never contends.
//
// Layout is deliberate: the mutex-guarded consumer state (bands, credit,
// maps, stats — including the per-band credit counters, which only the
// harvesting consumer touches) sits together at the top, while every
// atomic that crosses the producer/consumer boundary gets a cache line of
// its own below, so producers hammering npending or the eventcount never
// invalidate the line a scanning consumer is walking (false sharing).
type shard struct {
	mu      sync.Mutex
	idx     uint32
	tr      *tracer                  // back-reference to the queue's flight recorder; nil = tracing off
	bands   [NumPriorities]entryList // mature pending entries, one seq-ascending list per band
	credit  [NumPriorities]uint32    // anti-starvation credits (see creditDispatch)
	delayed entryList                // immature delayed entries in seq order
	timers  timerHeap                // the same immature entries ordered by maturity

	inflight map[Key]int      // in-flight handler count per owned key
	claims   map[Key]*seqFIFO // pending claim seqs per owned key
	fifoPool []*seqFIFO       // recycled claim queues

	stats shardCounters

	// Cross-thread hot state, one cache line each (the //pdq:isolated
	// markers make pdqvet's atomicpad analyzer verify the spacing).
	_ cpad
	//pdq:isolated
	npending atomic.Int64 // entries homed here (intake ring included), readable without mu
	_        cpad
	//pdq:isolated
	minSeq atomic.Uint64 // min pending seq across bands and delayed; MaxUint64 when empty
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

	in   intake    // lock-free producer intake ring (empty when disabled)
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
	keyConflicts       uint64
	orderConflicts     uint64
	windowStalls       uint64
	batches            uint64 // successful batch harvests from this shard
	batchEntries       uint64 // messages those harvests dispatched (coalesced included)
	coalesced          uint64 // messages merged beyond their run's representative
	expired            uint64 // entries dropped undispatched at their deadline
	delayed            uint64 // entries admitted with a future maturity
	prioDispatched     [NumPriorities]uint64
	latency            [NumPriorities]LatencyHistogram // dispatch latency per band (see Stats.BandLatency)
	maxPending         int
	maxBatch           int // largest harvest from this shard, in messages
	maxRingOcc         int // deepest intake-ring backlog met by a drain
}

func (s *shard) init(idx uint32, ring int) {
	s.idx = idx
	s.inflight = make(map[Key]int)
	s.claims = make(map[Key]*seqFIFO)
	s.minSeq.Store(math.MaxUint64)
	s.nextMature.Store(math.MaxInt64)
	s.in.init(ring)
	s.pool.init(nodePoolSize)
}

// node is a pending-list node. A hand-rolled list avoids container/list's
// interface boxing on this hot path.
type node struct {
	entry      Entry
	prev, next *node
}

// seqFIFO is an ordered queue of enqueue sequence numbers claiming one
// key. Sequence numbers are assigned while every involved shard is locked,
// so claimants of a key serialize on the key's owning shard and push in
// strictly increasing order: the head is always the earliest pending
// claim. An entry may dispatch only when it heads the claim queue of every
// key it carries and none of those keys is in flight — the sharded
// generalization of the v2 shadow-set scan (which blocked a later entry
// behind any earlier skipped entry sharing a key), extended so the
// discipline holds across shards, not just within one scan.
type seqFIFO struct {
	buf  []uint64
	head int
}

func (f *seqFIFO) push(seq uint64) { f.buf = append(f.buf, seq) }
func (f *seqFIFO) peek() uint64    { return f.buf[f.head] }
func (f *seqFIFO) empty() bool     { return f.head == len(f.buf) }

func (f *seqFIFO) pop() uint64 {
	v := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
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

// keysMask computes the bit set of shard indexes a key set touches.
func (q *Queue) keysMask(keys []Key) uint64 {
	var m uint64
	for _, k := range keys {
		m |= 1 << q.shardIndex(k)
	}
	return m
}

// pushClaim appends seq to k's claim queue. Caller holds s.mu and s owns k.
func (s *shard) pushClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil {
		if n := len(s.fifoPool); n > 0 {
			f = s.fifoPool[n-1]
			s.fifoPool = s.fifoPool[:n-1]
		} else {
			f = &seqFIFO{}
		}
		s.claims[k] = f
	}
	f.push(seq)
}

// popClaim removes the head claim for k, which must be seq (the dispatch
// path only pops after verifying the entry heads every claim queue).
func (s *shard) popClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil || f.pop() != seq {
		panic("pdq: claim queue out of order")
	}
	if f.empty() {
		delete(s.claims, k)
		// Pool the queue for reuse unless a burst grew its buffer past the
		// cap — pooling that would pin the burst-sized allocation forever.
		if len(s.fifoPool) < 64 && cap(f.buf) <= maxPooledClaimCap {
			s.fifoPool = append(s.fifoPool, f)
		}
	}
}

// maxPooledClaimCap bounds the buffer capacity of a claim queue eligible
// for s.fifoPool.
const maxPooledClaimCap = 1024

// removeClaim deletes seq from k's claim queue wherever it sits — the
// expiry path's analogue of popClaim, which only serves the head (an
// expired entry may still be queued behind earlier claimants). Caller
// holds s.mu and s owns k.
func (s *shard) removeClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil {
		panic("pdq: claim removal for unclaimed key")
	}
	if f.peek() == seq {
		s.popClaim(k, seq)
		return
	}
	for i := f.head + 1; i < len(f.buf); i++ {
		if f.buf[i] == seq {
			f.buf = append(f.buf[:i], f.buf[i+1:]...)
			return
		}
	}
	panic("pdq: claim removal for absent sequence")
}

// admitNode gives n, homed on s, its place in the queue — the admission
// tail shared by the mutex path and the intake-ring drain. It fetches
// the entry's global sequence number, registers its key claims on their
// owning shards, and links it into its priority band, or, for a
// scheduled entry, into the delayed list and timer heap. Caller holds
// the lock of every shard in the entry's smask across the call, so each
// per-key claim queue is pushed in strictly increasing seq order — the
// property the whole cross-shard FIFO discipline rests on — and each
// pending list stays seq-ascending.
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
	claims := m.Mode != ModeBarge && len(m.Keys) > 0
	if claims {
		// Barge entries never join the claim queues: their whole point is
		// acquisition by key availability alone, outside enqueue order.
		local := e.smask == 1<<s.idx
		for _, k := range m.Keys {
			o := s
			if !local {
				o = q.shardOf(k)
			}
			o.pushClaim(k, e.seq)
		}
	}
	if t := s.tr; t != nil && m.TraceID != 0 {
		kind := TraceEnqueue
		if ring {
			kind = TraceRingDrain
		}
		t.record(s.idx, m.TraceID, kind, e.seq, 0)
		if claims {
			t.record(s.idx, m.TraceID, TraceClaimJoin, e.seq, int64(len(m.Keys)))
		}
	}
	if e.notBefore != 0 {
		// Scheduled delivery: park on the home shard's timer heap (by
		// maturity) and delayed list (by seq, so the shard's minimum
		// pending seq — which gates Sequential barriers — still covers
		// it). Claims stay registered, so the entry keeps its per-key
		// queue position while it sleeps. An already-ripe NotBefore still
		// takes this path — the next scan's matureRipe promotes it in the
		// same pass, and routing by the option rather than by a clock read
		// keeps the delayed counter deterministic across the mutex and
		// intake-ring admission paths (the ring links later than it
		// admits).
		if s.delayed.append(n) {
			s.updateMinSeq()
		}
		s.timers.push(n)
		s.nextMature.Store(s.timers.nextMature())
		s.stats.delayed++
	} else if s.bands[m.Priority].append(n) {
		s.updateMinSeq()
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

// unlink removes n from its band's pending list. Caller holds s.mu.
func (s *shard) unlink(n *node) {
	if s.bands[n.entry.msg.Priority].remove(n) {
		s.updateMinSeq()
	}
	s.npending.Add(-1)
}

func (s *shard) recycle(n *node) { s.pool.put(n) }

// releaseKeys decrements the in-flight count of every key in keys on the
// shards named by mask — the inverse of the acquisition the dispatch path
// performed. It is shared by the Complete and Release paths: both free
// key state identically; they differ only in where the entry goes next.
func (q *Queue) releaseKeys(mask uint64, keys []Key) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		ok := s.releaseOwned(q, keys)
		s.mu.Unlock()
		if !ok {
			panic("pdq: Complete/Release for key with no in-flight handler")
		}
	}
}

// releaseOwned decrements the in-flight count of every key in keys that
// s owns. Caller holds s.mu. It reports false on a key with no in-flight
// handler (an invariant violation the caller must turn into a panic —
// after unlocking, so a recovering caller is not left holding the lock).
func (s *shard) releaseOwned(q *Queue, keys []Key) bool {
	for _, k := range keys {
		if q.shardIndex(k) != s.idx {
			continue
		}
		c := s.inflight[k]
		if c <= 0 {
			return false
		}
		if c == 1 {
			delete(s.inflight, k)
		} else {
			s.inflight[k] = c - 1
		}
	}
	return true
}

// Conflict kinds returned by the claim checks.
const (
	conflictNone  = iota
	conflictKey   // an overlapping key is in flight
	conflictOrder // an earlier enqueued entry claims an overlapping key
)

// conflict checks an entry's keys against s's in-flight and claim state,
// key by key in slice order: an in-flight key counts as a key conflict,
// an earlier claim as an order conflict. all=true checks every key
// (entries homed wholly on s); otherwise only the keys s owns are
// examined (one shard's share of a cross-shard entry).
//
// acquired is the in-batch exception: the keys taken by earlier entries
// of the harvest in progress (nil outside a batch and for cross-shard
// entries — foreign shards know nothing of the batch). A key held in
// flight only by such an entry is not a conflict, because batch order
// serializes the two on the executing goroutine. The claim-queue head
// check needs no exception — earlier batch entries popped their claims
// at harvest, so heading every claim queue *after* those pops is exactly
// the required order condition.
//
// barge=true (ModeBarge entries) waives the claim-order condition — such
// entries hold no claim-queue position and acquire on key availability
// alone — but forgoes the in-batch exception: a barge handler may park
// its keys past the batch (that is its use), so batch-order
// serialization cannot stand in for a free key. Caller holds s.mu.
func (s *shard) conflict(q *Queue, keys []Key, seq uint64, acquired []Key, all, barge bool) int {
	for _, k := range keys {
		if !all && q.shardIndex(k) != s.idx {
			continue
		}
		if s.inflight[k] > 0 && (barge || !keyIn(acquired, k)) {
			return conflictKey
		}
		if !barge && s.claims[k].peek() != seq {
			return conflictOrder
		}
	}
	return conflictNone
}

// keyIn reports whether k was acquired earlier in the batch. Batches are
// small (bounded by max and the search window), so a linear scan beats a
// map here.
func keyIn(acquired []Key, k Key) bool {
	for _, a := range acquired {
		if a == k {
			return true
		}
	}
	return false
}

// acquire takes the pending entry of n, homed on s and found free of
// conflicts, into flight: every key's in-flight count rises and its
// claim pops on the owning shard (a keyless or nosync entry has no keys;
// a barge entry has no claims to pop), the entry leaves its pending
// list, and its capacity slot returns. inflightAll rises BEFORE the
// unlink drops npending — the order isIdle's reads depend on. Caller
// holds s.mu and, for a cross-shard entry, the lock of every other
// shard in its smask.
func (q *Queue) acquire(s *shard, n *node) {
	e := &n.entry
	local := e.smask == 1<<s.idx
	barge := e.msg.Mode == ModeBarge
	q.inflightAll.Add(1)
	for _, k := range e.msg.Keys {
		o := s
		if !local {
			o = q.shardOf(k)
		}
		o.inflight[k]++
		if !barge {
			o.popClaim(k, e.seq)
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
	if !local {
		q.g.crossShard.Add(1)
	}
}

// tryDispatchCross attempts to dispatch a cross-shard entry homed on s
// (s.mu held). Foreign shards are TryLock'd — never blocked on while
// holding s.mu — so lock contention aborts with retry=true instead of
// risking an ABBA deadlock; the consumer rescans. On conflictNone every
// key is acquired on its owning shard and the entry is unlinked from s.
//
//pdq:crossshard
func (q *Queue) tryDispatchCross(s *shard, n *node) (kind int, retry bool) {
	e := &n.entry
	barge := e.msg.Mode == ModeBarge
	// Cheap local pre-check before touching other shards.
	if kind := s.conflict(q, e.msg.Keys, e.seq, nil, false, barge); kind != conflictNone {
		return kind, false
	}
	var locked uint64
	defer func() { q.unlockMask(locked) }()
	for m := e.smask &^ (1 << s.idx); m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		if !q.shards[i].mu.TryLock() {
			return conflictNone, true
		}
		locked |= 1 << i
	}
	for m := locked; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		if kind := q.shards[i].conflict(q, e.msg.Keys, e.seq, nil, false, barge); kind != conflictNone {
			return kind, false
		}
	}
	q.acquire(s, n)
	return conflictNone, false
}
