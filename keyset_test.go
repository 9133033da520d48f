package pdq

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKeySetOverlapSerializes drives the dispatcher manually: an entry
// whose key set overlaps an in-flight one must not dispatch, while a
// disjoint one must.
func TestKeySetOverlapSerializes(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKeys(1, 2)))
	mustEnqueue(t, q.Enqueue(nop, WithKeys(2, 3)))
	mustEnqueue(t, q.Enqueue(nop, WithKeys(4, 5)))

	a, ok := q.TryDequeue()
	if !ok {
		t.Fatal("{1,2} should dispatch on an idle queue")
	}
	c, ok := q.TryDequeue()
	if !ok {
		t.Fatal("{4,5} is disjoint from in-flight {1,2} and should dispatch")
	}
	// {2,3} overlaps in-flight {1,2} on key 2: blocked.
	if e, ok := q.TryDequeue(); ok {
		t.Fatalf("overlapping key set dispatched concurrently: %v", e.Message().Keys)
	}
	if s := q.Stats(); s.KeyConflicts+s.OrderConflicts == 0 {
		t.Fatal("overlap conflict not counted")
	}
	q.Complete(a)
	b, ok := q.TryDequeue()
	if !ok || b.Message().Keys[1] != 3 {
		t.Fatal("{2,3} should dispatch once {1,2} completes")
	}
	q.Complete(b)
	q.Complete(c)
}

// TestKeySetOrderPreserved pins the subtle case the shadow set exists
// for: when {A,B} is blocked, a LATER {B} must not overtake it even
// though key B itself is idle — overlapping key sets serialize in
// enqueue order, not in opportunity order.
func TestKeySetOrderPreserved(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))     // seq 1, will be in flight
	mustEnqueue(t, q.Enqueue(nop, WithKeys(1, 2))) // seq 2, blocked on key 1
	mustEnqueue(t, q.Enqueue(nop, WithKey(2)))     // seq 3, key 2 idle but must wait behind seq 2

	e1, _ := q.TryDequeue()
	if e, ok := q.TryDequeue(); ok {
		t.Fatalf("seq %d overtook the blocked {1,2} entry", e.Seq())
	}
	if q.Stats().OrderConflicts == 0 {
		t.Fatal("order-preserving skip not counted")
	}
	q.Complete(e1)
	e2, ok := q.TryDequeue()
	if !ok || e2.Seq() != 2 {
		t.Fatal("the {1,2} entry must dispatch next, in enqueue order")
	}
	// {2} still blocked: key 2 now genuinely in flight.
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("{2} dispatched while {1,2} held key 2")
	}
	q.Complete(e2)
	e3, ok := q.TryDequeue()
	if !ok || e3.Seq() != 3 {
		t.Fatal("{2} should dispatch last")
	}
	q.Complete(e3)
}

// TestKeySetDisjointRunConcurrently proves real parallelism: handlers
// with pairwise-disjoint key sets all run at the same time under a pool.
func TestKeySetDisjointRunConcurrently(t *testing.T) {
	q := New()
	const n = 4
	var cur, peak atomic.Int32
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		k := Key(i * 2)
		err := q.Enqueue(func(any) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			wg.Done()
			<-block
			cur.Add(-1)
		}, WithKeys(k, k+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, n)
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone: // all n key-set handlers running simultaneously
	case <-time.After(10 * time.Second):
		t.Fatal("disjoint key sets did not run concurrently")
	}
	close(block)
	q.Close()
	p.Wait()
	if peak.Load() != n {
		t.Fatalf("peak concurrency %d, want %d", peak.Load(), n)
	}
	if q.Stats().MultiKeyDispatched != n {
		t.Fatalf("MultiKeyDispatched = %d, want %d", q.Stats().MultiKeyDispatched, n)
	}
}

// TestKeySetMutualExclusionUnderRace is the race-enabled workhorse: a
// bank of accounts mutated lock-free by transfer handlers holding
// {from, to} key sets. Overlapping transfers must never run concurrently
// (per-key active counters), disjoint ones may, and the total balance is
// conserved. Run with -race.
func TestKeySetMutualExclusionUnderRace(t *testing.T) {
	const (
		accounts  = 16
		transfers = 4000
		workers   = 8
	)
	q := New()
	balances := make([]int64, accounts) // plain ints: PDQ is the only protection
	var active [accounts]atomic.Int32
	var violations atomic.Int32
	var initial int64
	for i := range balances {
		balances[i] = 1000
		initial += balances[i]
	}
	p := Serve(context.Background(), q, workers)
	rng := uint64(1)
	for i := 0; i < transfers; i++ {
		// xorshift: deterministic account pairs without math/rand.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		from := int(rng % accounts)
		to := int((rng >> 8) % accounts)
		if from == to {
			to = (to + 1) % accounts
		}
		amt := int64(rng%97) + 1
		err := q.Enqueue(func(any) {
			if active[from].Add(1) != 1 || active[to].Add(1) != 1 {
				violations.Add(1) // overlapping key sets ran concurrently
			}
			balances[from] -= amt
			balances[to] += amt
			active[to].Add(-1)
			active[from].Add(-1)
		}, WithKeys(Key(from), Key(to)))
		if err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	p.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d overlapping key-set handlers ran concurrently", v)
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	if total != initial {
		t.Fatalf("balance not conserved: %d, want %d", total, initial)
	}
	s := q.Stats()
	if s.MultiKeyDispatched != transfers {
		t.Fatalf("MultiKeyDispatched = %d, want %d", s.MultiKeyDispatched, transfers)
	}
}

// TestKeySetEnqueueOrderUnderRace checks order under a concurrent pool:
// for every key, the handlers whose sets contain it run in enqueue order.
func TestKeySetEnqueueOrderUnderRace(t *testing.T) {
	const (
		keys    = 8
		entries = 3000
		workers = 8
	)
	q := New()
	var last [keys]int64 // last enqueue index seen per key; guarded by PDQ
	var violations atomic.Int32
	p := Serve(context.Background(), q, workers)
	rng := uint64(42)
	for i := 0; i < entries; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		a := Key(rng % keys)
		b := Key((rng >> 16) % keys)
		idx := int64(i + 1)
		ks := []Key{a}
		if b != a {
			ks = append(ks, b)
		}
		err := q.Enqueue(func(any) {
			for _, k := range ks {
				if last[k] >= idx {
					violations.Add(1) // a later entry ran first on this key
				}
				last[k] = idx
			}
		}, WithKeys(ks...))
		if err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	p.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d per-key enqueue-order violations", v)
	}
}

// TestKeySetWithBarriersAndNoSyncUnderRace interleaves key-set entries
// with Sequential barriers and NoSync entries on a pool: the barrier must
// observe every earlier key-set handler complete and no later one
// started, while NoSync entries float freely. Run with -race.
func TestKeySetWithBarriersAndNoSyncUnderRace(t *testing.T) {
	const (
		rounds  = 20
		perSide = 40
		workers = 6
	)
	q := New()
	p := Serve(context.Background(), q, workers)
	var before, after, ticks atomic.Int32
	var violations atomic.Int32
	for r := 0; r < rounds; r++ {
		before.Store(0)
		after.Store(0)
		for i := 0; i < perSide; i++ {
			k := Key(i % 5)
			if err := q.Enqueue(func(any) { before.Add(1) }, WithKeys(k, k+5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Enqueue(func(any) { ticks.Add(1) }, NoSync()); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(func(any) {
			if before.Load() != perSide || after.Load() != 0 {
				violations.Add(1)
			}
		}, Sequential()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perSide; i++ {
			k := Key(i % 5)
			if err := q.Enqueue(func(any) { after.Add(1) }, WithKeys(k, k+5)); err != nil {
				t.Fatal(err)
			}
		}
		q.Drain() // round boundary: reset counters safely
	}
	q.Close()
	p.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d barrier isolation violations amid key-set entries", v)
	}
	if ticks.Load() != rounds {
		t.Fatalf("nosync ticks = %d, want %d", ticks.Load(), rounds)
	}
}

// TestKeySetDuplicateKeysHarmless: WithKeys(3,3) must behave exactly like
// a single key 3 — in-flight accounting stays balanced.
func TestKeySetDuplicateKeysHarmless(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKeys(3, 3)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(3)))
	e1, ok := q.TryDequeue()
	if !ok {
		t.Fatal("duplicate-key entry should dispatch")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("key 3 dispatched while duplicate-key entry held it")
	}
	q.Complete(e1)
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("key released despite duplicate accounting")
	}
	q.Complete(e2)
	if q.InFlight() != 0 {
		t.Fatal("in-flight accounting unbalanced after duplicate keys")
	}
}

// TestShadowMapBounded: the ordering structure behind the scan (per-key
// claim queues, which generalize the v2 shadow set) must not accumulate
// every key ever skipped — claims are released as entries dispatch, so
// after a drain the maps are empty even when every round used distinct
// keys, and dispatch order still holds throughout.
func TestShadowMapBounded(t *testing.T) {
	q := New()
	nop := func(any) {}
	const batch = 4000
	drain := func(blocker *Entry, n int) {
		q.Complete(blocker)
		for i := 0; i < n; i++ {
			e, ok := q.TryDequeue()
			if !ok {
				t.Fatalf("stalled draining entry %d", i)
			}
			q.Complete(e)
		}
	}
	for round := 0; round < 2; round++ {
		mustEnqueue(t, q.Enqueue(nop, WithKey(0)))
		blocker, _ := q.TryDequeue() // key 0 in flight
		for i := 1; i <= batch; i++ {
			k := Key(round*10_000 + i) // distinct keys every round
			mustEnqueue(t, q.Enqueue(nop, WithKeys(0, k)))
		}
		// Two full scans: each stamps this round's keys; the second scan
		// of round 1 crosses the bound and must reap round 0's stale keys.
		for s := 0; s < 2; s++ {
			if _, ok := q.TryDequeue(); ok {
				t.Fatal("dispatched past in-flight key 0")
			}
		}
		drain(blocker, batch)
	}
	s := &q.shards[0]
	s.mu.Lock()
	sz := len(s.keys)
	s.mu.Unlock()
	if sz != 0 {
		t.Fatalf("key table retained %d records after drain; claims not released", sz)
	}
}

// TestKeySetAccumulatesAcrossOptions: WithKey and WithKeys compose.
func TestKeySetAccumulatesAcrossOptions(t *testing.T) {
	q := New()
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1), WithKeys(2, 3), WithKey(4)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry should dispatch")
	}
	if ks := e.Message().Keys; len(ks) != 4 {
		t.Fatalf("keys = %v, want 4 accumulated keys", ks)
	}
	q.Complete(e)
	if q.Stats().MaxKeySet != 4 {
		t.Fatalf("MaxKeySet = %d, want 4", q.Stats().MaxKeySet)
	}
}
