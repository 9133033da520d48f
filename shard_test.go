package pdq

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// distinctShardKeys returns keys each owned by a different shard of q.
func distinctShardKeys(t *testing.T, q *Queue, want int) []Key {
	t.Helper()
	if int(q.mask)+1 < want {
		t.Fatalf("queue has %d shards, need %d", q.mask+1, want)
	}
	seen := make(map[uint32]bool)
	var ks []Key
	for k := Key(0); len(ks) < want && k < 1<<16; k++ {
		if si := q.shardIndex(k); !seen[si] {
			seen[si] = true
			ks = append(ks, k)
		}
	}
	if len(ks) < want {
		t.Fatalf("found only %d of %d shard-distinct keys", len(ks), want)
	}
	return ks
}

func TestWithShardsResolution(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 64}, {999, 64},
	} {
		if got := New(WithShards(tc.in)).Stats().Shards; got != tc.want {
			t.Fatalf("WithShards(%d) -> %d shards, want %d", tc.in, got, tc.want)
		}
	}
	if got := New(WithShards(0)).Stats().Shards; got < 1 || got&(got-1) != 0 {
		t.Fatalf("WithShards(0) -> %d shards, want a positive power of two", got)
	}
	if got := New().Stats().Shards; got != 1 {
		t.Fatalf("default shards = %d, want 1", got)
	}
}

// TestShardedCrossShardOrderPreserved is TestKeySetOrderPreserved on a
// sharded core with the keys deliberately on different shards: a blocked
// cross-shard {A,B} must not be overtaken by a later {B} even though B's
// shard has nothing else to do.
func TestShardedCrossShardOrderPreserved(t *testing.T) {
	q := New(WithShards(4))
	ks := distinctShardKeys(t, q, 2)
	a, b := ks[0], ks[1]
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(a)))     // seq 1, will be in flight
	mustEnqueue(t, q.Enqueue(nop, WithKeys(a, b))) // seq 2, cross-shard, blocked on a
	mustEnqueue(t, q.Enqueue(nop, WithKey(b)))     // seq 3, must wait behind seq 2

	e1, ok := q.TryDequeue()
	if !ok || e1.Seq() != 1 {
		t.Fatal("first entry should dispatch")
	}
	if e, ok := q.TryDequeue(); ok {
		t.Fatalf("seq %d overtook the blocked cross-shard {A,B} entry", e.Seq())
	}
	if q.Stats().OrderConflicts == 0 {
		t.Fatal("cross-shard order-preserving skip not counted")
	}
	q.Complete(e1)
	e2, ok := q.TryDequeue()
	if !ok || e2.Seq() != 2 {
		t.Fatal("the cross-shard {A,B} entry must dispatch next, in enqueue order")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("{B} dispatched while cross-shard {A,B} held key B")
	}
	q.Complete(e2)
	e3, ok := q.TryDequeue()
	if !ok || e3.Seq() != 3 {
		t.Fatal("{B} should dispatch last")
	}
	q.Complete(e3)
	s := q.Stats()
	if s.CrossShard != 1 {
		t.Fatalf("CrossShard = %d, want 1", s.CrossShard)
	}
	if s.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards)
	}
}

// TestShardedDuplicateCrossShardKeys: duplicates inside a cross-shard key
// set must keep claim and in-flight accounting balanced.
func TestShardedDuplicateCrossShardKeys(t *testing.T) {
	q := New(WithShards(4))
	ks := distinctShardKeys(t, q, 2)
	a, b := ks[0], ks[1]
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKeys(a, b, a)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(a)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(b)))
	e1, ok := q.TryDequeue()
	if !ok || len(e1.Message().Keys) != 3 {
		t.Fatal("duplicate-key cross-shard entry should dispatch first")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("overlapping key dispatched while the cross-shard set held it")
	}
	q.Complete(e1)
	for i := 0; i < 2; i++ {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("entry %d stalled after cross-shard release", i)
		}
		q.Complete(e)
	}
	if q.InFlight() != 0 || q.Len() != 0 {
		t.Fatal("accounting unbalanced after duplicate cross-shard keys")
	}
}

// TestShardedSequentialBarrier: the epoch barrier must drain every shard,
// run alone, and release — with the surrounding keyed entries on distinct
// shards.
func TestShardedSequentialBarrier(t *testing.T) {
	q := New(WithShards(8))
	ks := distinctShardKeys(t, q, 3)
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(ks[0])))
	mustEnqueue(t, q.Enqueue(nop, WithKey(ks[1])))
	mustEnqueue(t, q.Enqueue(nop, Sequential()))
	mustEnqueue(t, q.Enqueue(nop, WithKey(ks[2])))

	e1, ok := q.TryDequeue()
	if !ok {
		t.Fatal("pre-barrier entry should dispatch")
	}
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("second pre-barrier entry should dispatch from its own shard")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dispatch crossed a pending cross-shard barrier")
	}
	q.Complete(e1)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("barrier activated before every shard drained")
	}
	q.Complete(e2)
	seq, ok := q.TryDequeue()
	if !ok || seq.Message().Mode != ModeSequential {
		t.Fatal("barrier should activate once all shards drained")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dispatch during cross-shard barrier execution")
	}
	q.Complete(seq)
	e3, ok := q.TryDequeue()
	if !ok || e3.Message().Keys[0] != ks[2] {
		t.Fatal("post-barrier entry should dispatch after the barrier completes")
	}
	q.Complete(e3)
	if got := q.Stats().SeqDispatched; got != 1 {
		t.Fatalf("SeqDispatched = %d, want 1", got)
	}
}

// TestShardedDisjointParallelism: disjoint single-key handlers on distinct
// shards all run simultaneously under a pool.
func TestShardedDisjointParallelism(t *testing.T) {
	q := New(WithShards(4))
	ks := distinctShardKeys(t, q, 4)
	var cur, peak atomic.Int32
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(len(ks))
	for _, k := range ks {
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
		}, WithKey(k))
		if err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, len(ks))
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("disjoint keys on distinct shards did not run concurrently")
	}
	close(block)
	q.Close()
	p.Wait()
	if int(peak.Load()) != len(ks) {
		t.Fatalf("peak concurrency %d, want %d", peak.Load(), len(ks))
	}
}

// TestShardedStatsBalance: after close+drain on a sharded core,
// enqueued == dispatched == completed across any mode mix.
func TestShardedStatsBalance(t *testing.T) {
	f := func(seed int64, rawWorkers, rawShards uint8) bool {
		r := rand.New(rand.NewSource(seed))
		shards := 1 << (rawShards % 4)
		q := New(WithShards(shards))
		script := genScript(r, 80)
		for _, op := range script {
			var err error
			switch op.kind {
			case opSeq:
				err = q.Enqueue(func(any) {}, Sequential())
			case opNoSync:
				err = q.Enqueue(func(any) {}, NoSync())
			default:
				err = q.Enqueue(func(any) {}, WithKeys(op.keys...))
			}
			if err != nil {
				return false
			}
		}
		p := Serve(context.Background(), q, int(rawWorkers%6)+1)
		q.Close()
		p.Wait()
		s := q.Stats()
		return s.Enqueued == s.Dispatched && s.Dispatched == s.Completed &&
			s.Enqueued == uint64(len(script)) && s.Shards == New(WithShards(shards)).Stats().Shards
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInvariantsSharded runs the full random-script invariant
// suite (exactly-once execution, key-set mutual exclusion, per-key enqueue
// order, barrier isolation) against sharded cores.
func TestPropertyInvariantsSharded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, rawWorkers, rawShards uint8) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(rawWorkers%8) + 1
		shards := 1 << (rawShards%3 + 1) // 2, 4, 8
		script := genScript(r, 120)
		return runScript(t, script, workers, WithShards(shards))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedEnqueueWaitBackpressure: capacity slots are global across
// shards; a bounded sharded queue fed by EnqueueWait loses nothing.
func TestShardedEnqueueWaitBackpressure(t *testing.T) {
	q := New(WithShards(4), WithCapacity(3))
	var count atomic.Int64
	p := Serve(context.Background(), q, 3)
	const n = 300
	for i := 0; i < n; i++ {
		if err := q.EnqueueWait(context.Background(), func(any) { count.Add(1) }, WithKey(Key(i%11))); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	p.Wait()
	if count.Load() != n {
		t.Fatalf("handled %d, want %d", count.Load(), n)
	}
	if q.Stats().Rejected != 0 {
		t.Fatal("EnqueueWait must not reject")
	}
}

// TestShardedCrossShardMutualExclusionUnderRace hammers cross-shard key
// sets from a pool: the bank-transfer invariants must hold when from/to
// accounts live on different shards. Run with -race.
func TestShardedCrossShardMutualExclusionUnderRace(t *testing.T) {
	const (
		accounts  = 16
		transfers = 4000
		workers   = 8
	)
	q := New(WithShards(8))
	balances := make([]int64, accounts) // PDQ is the only protection
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
				violations.Add(1)
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
		t.Fatalf("%d overlapping cross-shard key sets ran concurrently", v)
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	if total != initial {
		t.Fatalf("balance not conserved: %d, want %d", total, initial)
	}
	if s := q.Stats(); s.MultiKeyDispatched != transfers {
		t.Fatalf("MultiKeyDispatched = %d, want %d", s.MultiKeyDispatched, transfers)
	}
}
