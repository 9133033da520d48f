package pdq

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file checks ready-list dispatch against the definition it
// replaced. refModel is that definition — the windowed scan's notion of
// "dispatchable", evaluated from scratch over every pending entry — kept
// here as the executable specification: an entry may dispatch when it is
//
//	mature ∧ heads every claim queue ∧ no key in flight ∧ before the barrier
//
// (a barge entry needs only idle keys; inside one batch, keys held by
// earlier members of the batch count as free for an entry homed wholly on
// the harvested shard), and among the dispatchable entries of one shard
// and band the oldest goes first. TestReadyListMatchesReferenceModel
// drives the queue single-threaded from a seeded generator and holds
// every dispatch, every expiry and every "nothing dispatchable" answer to
// the model.

// refEntry is one admitted message in the model. id is its enqueue
// order, which is also the order of sequence numbers on any one shard and
// in any one claim queue.
type refEntry struct {
	id       int
	data     int // WithData payload: stable across retries
	keys     []Key
	mode     Mode
	band     int
	home     int // shard index; -1 for a sequential entry
	local    bool
	delayed  bool // enqueued with a far-future NotBefore, which a retry carries along
	immature bool // delayed and not yet ripened
	expired  bool
	attempt  int
}

type refModel struct {
	q        *Queue
	nextID   int
	pending  map[int]*refEntry // by data
	running  map[int]*refEntry // by data
	inflight map[Key]int
	active   bool // a sequential entry is running
}

func newRefModel(q *Queue) *refModel {
	return &refModel{q: q, pending: map[int]*refEntry{}, running: map[int]*refEntry{}, inflight: map[Key]int{}}
}

func distinct(keys []Key) []Key {
	var out []Key
	for _, k := range keys {
		if !keyIn(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// homeOf mirrors enqueueSharded's placement of a keyed entry.
func (m *refModel) homeOf(keys []Key) (home int, local bool) {
	best := ^uint64(0)
	var smask uint64
	for _, k := range keys {
		h := mix64(uint64(k))
		smask |= 1 << (uint32(h) & m.q.mask)
		if h <= best {
			best, home = h, int(uint32(h)&m.q.mask)
		}
	}
	return home, bits.OnesCount64(smask) == 1
}

func (m *refModel) add(data int, keys []Key, mode Mode, band int, delayed, expired bool, attempt int) *refEntry {
	e := &refEntry{id: m.nextID, data: data, keys: distinct(keys), mode: mode, band: band,
		home: -1, local: true, delayed: delayed, immature: delayed, expired: expired, attempt: attempt}
	m.nextID++
	switch {
	case len(keys) > 0:
		e.home, e.local = m.homeOf(keys)
	case mode != ModeSequential && m.q.mask != 0:
		e.home = -2 - e.id // placed round-robin: ordered against nothing
	case mode != ModeSequential:
		e.home = 0
	}
	m.pending[data] = e
	return e
}

// heads reports whether e is the earliest pending keyed claimant of k.
func (m *refModel) heads(e *refEntry, k Key) bool {
	for _, o := range m.pending {
		if o.id < e.id && o.mode == ModeKeyed && keyIn(o.keys, k) {
			return false
		}
	}
	return true
}

// canRun is the reference definition. batch lists the keys taken by
// earlier entries of the harvest in progress (nil outside one).
func (m *refModel) canRun(e *refEntry, batch []Key) bool {
	if m.active || e.immature {
		return false
	}
	for _, o := range m.pending {
		if o.mode == ModeSequential && o.id < e.id {
			return false // behind a pending barrier
		}
	}
	switch e.mode {
	case ModeSequential:
		if len(m.running) > 0 {
			return false
		}
		for _, o := range m.pending {
			if o.id < e.id {
				return false
			}
		}
	case ModeKeyed:
		for _, k := range e.keys {
			if !m.heads(e, k) || m.inflight[k] > 0 && !(e.local && keyIn(batch, k)) {
				return false
			}
		}
	case ModeBarge:
		for _, k := range e.keys {
			if m.inflight[k] > 0 {
				return false
			}
		}
	}
	return true
}

// oldestFirst reports an older entry of e's shard and band that could
// have run in its place.
func (m *refModel) oldestFirst(e *refEntry, batch []Key) error {
	for _, o := range m.pending {
		if o.id < e.id && o.home == e.home && o.band == e.band && o.mode != ModeSequential && m.canRun(o, batch) {
			return fmt.Errorf("entry %d (%+v) dispatched ahead of older dispatchable entry %d (%+v)", e.id, *e, o.id, *o)
		}
	}
	return nil
}

func (m *refModel) dispatch(e *refEntry) {
	delete(m.pending, e.data)
	m.running[e.data] = e
	for _, k := range e.keys {
		m.inflight[k]++
	}
	m.active = e.mode == ModeSequential
}

func (m *refModel) resolve(e *refEntry) {
	delete(m.running, e.data)
	for _, k := range e.keys {
		m.inflight[k]--
	}
	if e.mode == ModeSequential {
		m.active = false
	}
}

// refHarness drives one queue and its model in lock step.
type refHarness struct {
	t     *testing.T
	q     *Queue
	m     *refModel
	rng   *rand.Rand
	batch int
	eager bool  // flush the intake rings after every admission: nothing waits in a ring
	dead  []int // data of dead-lettered messages not yet accounted for
	held  []*Entry
	data  int
	log   []string
}

func (h *refHarness) fail(format string, args ...any) {
	h.t.Helper()
	for _, l := range h.log[max(0, len(h.log)-40):] {
		h.t.Log(l)
	}
	h.t.Fatalf(format, args...)
}

// settleModel applies to the model what one dequeue call produced: es,
// the entries it dispatched in order, plus every dead letter logged
// since. The hook runs after the harvest, so where in the sequence of
// dispatches each expiry happened is not known, and it matters (an
// expiry can make a dispatch possible; a barge dispatch can make an
// expiry impossible): the model must accept some interleaving.
func (h *refHarness) settleModel(es []*Entry) {
	if !h.interleave(es, nil) {
		var ds []string
		for _, e := range es {
			ds = append(ds, fmt.Sprintf("%+v", *h.m.pending[e.Message().Data.(int)]))
		}
		h.fail("the model accepts no order of dispatches %v and expiries %v", ds, h.dead)
	}
	h.held = append(h.held, es...)
	h.dead = h.dead[:0]
}

// interleave searches for an order of the remaining dispatches (fixed
// among themselves) and dead letters (free) in which every step is legal
// in the model, leaving the model in the state after the last step.
func (h *refHarness) interleave(es []*Entry, batch []Key) bool {
	if len(es) == 0 && len(h.dead) == 0 {
		return true
	}
	if len(es) > 0 {
		e := h.m.pending[es[0].Message().Data.(int)]
		if e != nil && !e.expired && es[0].Attempt() == e.attempt && h.m.canRun(e, batch) && h.m.oldestFirst(e, batch) == nil {
			h.m.dispatch(e)
			nb := batch
			if e.mode == ModeKeyed {
				nb = append(batch[:len(batch):len(batch)], e.keys...)
			}
			n := len(h.log)
			h.log = append(h.log, fmt.Sprintf("  dispatched %d keys=%v mode=%v band=%d", e.id, e.keys, e.mode, e.band))
			if h.interleave(es[1:], nb) {
				return true
			}
			h.log = h.log[:n]
			h.m.resolve(e)
			h.m.pending[e.data] = e
		}
	}
	for i, d := range h.dead {
		e := h.m.pending[d]
		if e == nil || !e.expired || !h.m.canRun(e, batch) {
			continue
		}
		delete(h.m.pending, d)
		rest := append(append([]int(nil), h.dead[:i]...), h.dead[i+1:]...)
		saved := h.dead
		h.dead = rest
		n := len(h.log)
		h.log = append(h.log, fmt.Sprintf("  expired %d", e.id))
		if h.interleave(es, batch) {
			return true
		}
		h.log = h.log[:n]
		h.dead = saved
		h.m.pending[d] = e
	}
	return false
}

// drain dequeues until the queue reports nothing dispatchable, then
// asserts the model agrees.
func (h *refHarness) drain() {
	for {
		var es []*Entry
		if h.batch > 1 {
			es, _ = h.q.TryDequeueBatch(h.batch)
			if len(es) > 1 {
				for _, e := range es {
					if bits.OnesCount64(e.smask) != 1 {
						h.fail("cross-shard entry inside a batch of %d", len(es))
					}
				}
			}
		} else if e, ok := h.q.TryDequeue(); ok {
			es = []*Entry{e}
		}
		worked := len(es) > 0 || len(h.dead) > 0
		h.settleModel(es)
		if !worked {
			break
		}
	}
	for _, e := range h.m.pending {
		if h.m.canRun(e, nil) {
			h.fail("queue reports nothing dispatchable; model says entry %d (%+v) is", e.id, *e)
		}
	}
}

// ripen makes one far-future delayed entry mature now, in the queue (by
// rewriting its maturity on the timer heap, which the test reaches into
// because the scheduling clock is not injectable) and in the model.
func (h *refHarness) ripen() {
	var cands []*refEntry
	for _, e := range h.m.pending {
		if e.immature {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].id < cands[b].id })
	e := cands[h.rng.Intn(len(cands))]
	h.q.flushIntakeAll() // the entry may still sit in an intake ring
	for i := range h.q.shards {
		s := &h.q.shards[i]
		s.mu.Lock()
		it := s.timers.it
		s.timers.it = nil
		for _, i := range it {
			if i.n.entry.msg.Data.(int) == e.data {
				i.n.entry.notBefore = -1
				e.immature = false
			}
			s.timers.push(i.n.entry.notBefore, i.n)
		}
		s.nextMature.Store(s.timers.nextMature())
		s.mu.Unlock()
	}
	if e.immature {
		h.fail("delayed entry %d not found on any timer heap", e.id)
	}
	h.log = append(h.log, fmt.Sprintf("ripen %d", e.id))
}

func (h *refHarness) enqueue(universe []Key) {
	r := h.rng
	mode := ModeKeyed
	var keys []Key
	switch p := r.Intn(20); {
	case p == 0:
		mode = ModeSequential
	case p == 1:
		mode = ModeNoSync
	case p == 2:
		// keyless
	case p <= 5:
		mode = ModeBarge
		fallthrough
	default:
		for n := 1 + r.Intn(3); n > 0; n-- {
			keys = append(keys, universe[r.Intn(len(universe))]) // duplicates allowed
		}
	}
	opts := []EnqueueOption{WithData(h.data), WithKeys(keys...)}
	switch mode {
	case ModeSequential:
		opts = append(opts, Sequential())
	case ModeNoSync:
		opts = append(opts, NoSync())
	case ModeBarge:
		opts = append(opts, Barge())
	}
	band, immature, expired := 0, false, false
	if mode != ModeSequential {
		band = r.Intn(NumPriorities)
		opts = append(opts, WithPriority(band))
		switch r.Intn(8) {
		case 0: // already ripe: the delayed path, mature at the next harvest
			opts = append(opts, WithDelay(-time.Hour))
		case 1: // matures only when ripen says so
			opts = append(opts, WithDelay(time.Hour))
			immature = true
		}
		switch r.Intn(8) {
		case 0:
			opts = append(opts, WithTTL(-time.Hour))
			expired = true
		case 1:
			opts = append(opts, WithTTL(time.Hour))
		}
	}
	if err := h.q.Enqueue(func(any) {}, opts...); err != nil {
		h.fail("enqueue: %v", err)
	}
	h.admitted()
	e := h.m.add(h.data, keys, mode, band, immature, expired, 0)
	h.log = append(h.log, fmt.Sprintf("enqueue %d keys=%v mode=%v band=%d immature=%v expired=%v", e.id, e.keys, mode, band, immature, expired))
	h.data++
}

// admitted runs after every admission (an enqueue, a retry). An eager
// harness drains the intake rings there, so every entry has its sequence
// number and its claim-queue places before the next operation — the state
// lock-path admission leaves, which a harvest's own prefix drain reaches
// only when it gets to the shard (never while a barrier runs).
func (h *refHarness) admitted() {
	if h.eager {
		h.q.flushIntakeAll()
	}
}

// resolveOne completes or releases one held entry. A release retries once
// (WithRetry(1)): the message re-enters the queue, and the model, at the
// tail.
func (h *refHarness) resolveOne() {
	if len(h.held) == 0 {
		return
	}
	i := h.rng.Intn(len(h.held))
	e := h.held[i]
	h.held = append(h.held[:i], h.held[i+1:]...)
	me := h.m.running[e.Message().Data.(int)]
	h.m.resolve(me)
	if h.rng.Intn(4) != 0 {
		h.log = append(h.log, fmt.Sprintf("complete %d", me.id))
		h.q.Complete(e)
		return
	}
	h.log = append(h.log, fmt.Sprintf("release %d", me.id))
	h.q.Release(e, errors.New("boom"))
	h.admitted()
	if me.attempt == 0 {
		// The retry keeps band, deadline and NotBefore: a message that
		// was delayed an hour is again.
		h.m.add(me.data, me.keys, me.mode, me.band, me.delayed, me.expired, 1)
	} else {
		h.dead = h.dead[:len(h.dead)-1] // its own dead letter: budget exhausted
	}
}

// TestReadyListMatchesReferenceModel checks every dispatch against the
// reference model over shard counts, batch sizes and intake-ring sizes: 2
// keeps the ring-full fallback hot, 4 laps often, 256 is what New builds.
// Ring 0 is the default ring on an eager harness (refHarness.admitted), so
// zero entries wait in it when dispatch looks.
func TestReadyListMatchesReferenceModel(t *testing.T) {
	for _, cfg := range []struct{ shards, ring, batch int }{
		{1, 0, 1}, {1, intakeRingSize, 1}, {1, 4, 8}, {1, 0, 8},
		{4, 0, 1}, {4, intakeRingSize, 1}, {4, 2, 8}, {4, intakeRingSize, 8},
	} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards%d-ring%d-batch%d-seed%d", cfg.shards, cfg.ring, cfg.batch, seed), func(t *testing.T) {
				h := &refHarness{t: t, rng: rand.New(rand.NewSource(seed)), batch: cfg.batch, eager: cfg.ring == 0}
				ring := cfg.ring
				if h.eager {
					ring = intakeRingSize
				}
				h.q = newQueue(ring, WithShards(cfg.shards), WithRetry(1),
					WithDeadLetter(func(m Message, err error) { h.dead = append(h.dead, m.Data.(int)) }))
				h.m = newRefModel(h.q)
				universe := make([]Key, 6) // small, so key sets collide; spread over the shards
				for i := range universe {
					universe[i] = Key(i * 7)
				}
				for step := 0; step < 400; step++ {
					switch p := h.rng.Intn(10); {
					case p < 5:
						h.enqueue(universe)
					case p < 8:
						h.resolveOne()
					default:
						h.ripen()
					}
					h.drain()
				}
				// Wind down: everything still pending must come out.
				for guard := 0; len(h.m.pending)+len(h.held) > 0; guard++ {
					if guard > 10_000 {
						h.fail("queue did not drain: %d pending, %d held", len(h.m.pending), len(h.held))
					}
					h.ripen()
					h.resolveOne()
					h.drain()
				}
				if h.q.Len() != 0 || h.q.InFlight() != 0 {
					t.Fatalf("residual state: len=%d inflight=%d", h.q.Len(), h.q.InFlight())
				}
				assertKeyTablesEmpty(t, h.q)
			})
		}
	}
}

// assertKeyTablesEmpty checks that no per-key record outlived the entries
// that needed it.
func assertKeyTablesEmpty(t *testing.T, q *Queue) {
	t.Helper()
	for i := range q.shards {
		s := &q.shards[i]
		s.mu.Lock()
		n := len(s.keys)
		var ready int
		for b := range s.ready {
			if !s.ready[b].empty() {
				ready++
			}
		}
		pending := s.pending.head != nil
		s.mu.Unlock()
		if n != 0 || ready != 0 || pending {
			t.Fatalf("shard %d: %d key records, %d non-empty ready lists, pending=%v after drain", i, n, ready, pending)
		}
	}
}

// readySeedScripts draws byte scripts for the fuzz targets' seed corpora
// from the model test's seeds, so the fuzzers start from longer, denser
// collision mixes than their hand-written seeds.
func readySeedScripts() [][]byte {
	var out [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+r.Intn(64))
		r.Read(b)
		out = append(out, b)
	}
	return out
}

// TestReadyListNoLostWakeup is the concurrent counterpart of the model
// test: completions wake exactly as many consumers as they made entries
// ready, so an entry linked ready without its wake-up — or a link never
// made — strands work and wedges the drain. Four workers serve 2-key
// cross-shard sets drawn Zipf over 64 keys while producers race
// Close+Drain on a bounded queue; every accepted message must run, under
// mutual exclusion per key, and nothing may be left behind: no pending
// entry, no in-flight count, no per-key record, no capacity slot. Run
// with -race.
func TestReadyListNoLostWakeup(t *testing.T) {
	for round := 0; round < 6; round++ {
		q := newQueue(8, WithShards(4), WithCapacity(64))
		var handled, accepted atomic.Int64
		var busy [64]atomic.Int32
		var overlap atomic.Int32
		p := Serve(context.Background(), q, 4)

		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*10 + w)))
				z := rand.NewZipf(r, 1.1, 1, 63)
				for {
					a, b := Key(z.Uint64()), Key(z.Uint64())
					for b == a {
						b = Key(z.Uint64())
					}
					opts := []EnqueueOption{WithKeys(a, b)}
					if r.Intn(16) == 0 {
						opts = append(opts, Barge())
					}
					err := q.EnqueueWait(context.Background(), func(any) {
						if busy[a].Add(1) != 1 || busy[b].Add(1) != 1 {
							overlap.Add(1)
						}
						handled.Add(1)
						busy[a].Add(-1)
						busy[b].Add(-1)
					}, opts...)
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("EnqueueWait: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				q.Drain()
			}
		}()
		time.Sleep(time.Duration(1+round) * time.Millisecond)
		q.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); p.Wait(); q.Drain(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d wedged: %s", round, q.Stats())
		}
		if handled.Load() != accepted.Load() || overlap.Load() != 0 {
			t.Fatalf("round %d: handled %d of %d accepted, %d key overlaps", round, handled.Load(), accepted.Load(), overlap.Load())
		}
		if q.Len() != 0 || q.InFlight() != 0 || q.capUsed.Load() != 0 {
			t.Fatalf("round %d residual state: len=%d inflight=%d capUsed=%d", round, q.Len(), q.InFlight(), q.capUsed.Load())
		}
		assertKeyTablesEmpty(t, q)
	}
}

// TestCompleteNextHandsOffSameKeySuccessor: the chain handoff returns the
// entry the completion itself made ready — the next claimant of the key
// it released — not the shard's oldest ready entry, and an entry handed
// off wakes no consumer for itself.
func TestCompleteNextHandsOffSameKeySuccessor(t *testing.T) {
	for _, shards := range []int{1, 4} {
		q := New(WithShards(shards))
		nop := func(any) {}
		keys := []Key{1, 2}
		if shards > 1 {
			keys = distinctShardKeys(t, q, 2)
		}
		chain, other := keys[0], keys[1]
		mustEnqueue(t, q.Enqueue(nop, WithKey(chain), WithData("head")))
		head, ok := q.TryDequeue()
		if !ok {
			t.Fatal("chain head did not dispatch")
		}
		// An older ready entry on the completion's shard (keyless entries
		// are placed round-robin; one per shard covers it), then the
		// successor, which spans both keys when there are shards to span.
		for i := 0; i < shards; i++ {
			mustEnqueue(t, q.Enqueue(nop, WithData("bystander")))
		}
		mustEnqueue(t, q.Enqueue(nop, WithKeys(chain, other), WithData("successor")))
		// An entry still in the ring has joined no claim queue, and the test
		// is about one that has.
		q.flushIntakeAll()
		next, ok := q.CompleteNext(head)
		if !ok || next.Message().Data != "successor" {
			t.Fatalf("shards=%d: CompleteNext handed off %v (ok=%v), want the same-key successor", shards, next, ok)
		}
		if s := q.Stats(); s.ChainHandoffs != 1 {
			t.Fatalf("ChainHandoffs = %d, want 1", s.ChainHandoffs)
		}
		// With no successor to make ready, the handoff falls back to the
		// shard's oldest ready entry.
		if shards == 1 {
			bystander, ok := q.CompleteNext(next)
			if !ok || bystander.Message().Data != "bystander" {
				t.Fatalf("CompleteNext with no successor handed off %v (ok=%v), want the bystander", bystander, ok)
			}
			next = bystander
		}
		q.Complete(next)
		for {
			e, ok := q.TryDequeue()
			if !ok {
				break
			}
			q.Complete(e)
		}
		if q.Len() != 0 || q.InFlight() != 0 {
			t.Fatalf("shards=%d residual state: len=%d inflight=%d", shards, q.Len(), q.InFlight())
		}
	}
}

// TestCompleteNextExpiredSuccessorAmongMany: one completion readies more
// entries than fit any inline buffer, the handoff takes one of them, and
// that one has expired — so taking it readies its own successor in the
// middle of paying out the completion's other links. Every successor must
// still run and nothing may be left behind.
func TestCompleteNextExpiredSuccessorAmongMany(t *testing.T) {
	const nkeys = 6
	var dead atomic.Int32
	q := New(WithShards(1), WithDeadLetter(func(Message, error) { dead.Add(1) }))
	nop := func(any) {}
	var all []Key
	for k := Key(1); k <= nkeys; k++ {
		all = append(all, k)
	}
	mustEnqueue(t, q.Enqueue(nop, WithKeys(all...)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("holder did not dispatch")
	}
	for _, k := range all {
		mustEnqueue(t, q.Enqueue(nop, WithKey(k), WithTTL(time.Millisecond)))
		mustEnqueue(t, q.Enqueue(nop, WithKey(k)))
	}
	if _, ok := q.TryDequeue(); ok { // drains the intake ring; everything waits on the holder
		t.Fatal("an entry dispatched past the in-flight holder")
	}
	time.Sleep(5 * time.Millisecond)
	ran := 0
	for guard := 0; e != nil && guard < 100; guard++ {
		next, ok := q.CompleteNext(e)
		if !ok {
			next, _ = q.TryDequeue()
		}
		if e = next; e != nil {
			ran++
		}
	}
	if ran != nkeys || dead.Load() != nkeys || q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("ran %d of %d successors, %d of %d dead letters, len=%d inflight=%d",
			ran, nkeys, dead.Load(), nkeys, q.Len(), q.InFlight())
	}
	assertKeyTablesEmpty(t, q)
}
