package pdq

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTryDequeueBatchHarvestsRun verifies the single-lock harvest: a run
// of disjoint-key entries comes back as one batch, in enqueue order, and
// a same-key run is harvested into one batch too (in-batch suppression),
// still in per-key enqueue order.
func TestTryDequeueBatchHarvestsRun(t *testing.T) {
	for _, sameKey := range []bool{false, true} {
		name := "disjoint"
		if sameKey {
			name = "same-key"
		}
		t.Run(name, func(t *testing.T) {
			q := New() // one shard: every entry lands in one pending list
			const n = 8
			for i := 0; i < n; i++ {
				k := Key(i)
				if sameKey {
					k = Key(42)
				}
				if err := q.Enqueue(func(any) {}, WithKey(k), WithData(i)); err != nil {
					t.Fatal(err)
				}
			}
			es, ok := q.TryDequeueBatch(n + 5)
			if !ok || len(es) != n {
				t.Fatalf("TryDequeueBatch: got %d entries, ok=%v; want %d", len(es), ok, n)
			}
			for i, e := range es {
				if e.Message().Data.(int) != i {
					t.Fatalf("batch out of enqueue order at %d: got data %v", i, e.Message().Data)
				}
			}
			if sameKey {
				// The shared key must read as in flight to outside consumers
				// until every batch member resolves.
				if err := q.Enqueue(func(any) {}, WithKey(Key(42))); err != nil {
					t.Fatal(err)
				}
				for i, e := range es {
					if _, ok := q.TryDequeue(); ok {
						t.Fatalf("later same-key entry dispatched with %d batch members unresolved", len(es)-i)
					}
					q.Complete(e)
				}
				e, ok := q.TryDequeue()
				if !ok {
					t.Fatal("later same-key entry not dispatchable after batch resolved")
				}
				q.Complete(e)
			} else {
				for _, e := range es {
					q.Complete(e)
				}
			}
			if s := q.Stats(); s.Batches != 1 || s.BatchEntries != n || s.MaxBatch != n {
				t.Fatalf("batch counters: %s", s)
			}
			q.Close()
			q.Drain()
		})
	}
}

// TestBatchBoundedBySequentialBarrier verifies the harvest stops at a
// pending sequential barrier's gate: entries enqueued after the barrier
// are not harvested with entries before it, the barrier dispatches as a
// batch of one, and the tail follows in a later batch.
func TestBatchBoundedBySequentialBarrier(t *testing.T) {
	q := New(WithShards(4))
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(func(any) {}, WithKey(Key(i)), WithData("pre")); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue(func(any) {}, Sequential(), WithData("bar")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(func(any) {}, WithKey(Key(i)), WithData("post")); err != nil {
			t.Fatal(err)
		}
	}
	var pre []*Entry
	for len(pre) < 3 {
		es, ok := q.TryDequeueBatch(16)
		if !ok {
			t.Fatalf("harvest stalled with %d pre-barrier entries dispatched", len(pre))
		}
		for _, e := range es {
			if e.Message().Data.(string) != "pre" {
				t.Fatalf("harvested %q entry across the barrier gate", e.Message().Data)
			}
			pre = append(pre, e)
		}
	}
	if _, ok := q.TryDequeueBatch(16); ok {
		t.Fatal("batch dispatched while barrier epoch not drained")
	}
	for _, e := range pre {
		q.Complete(e)
	}
	es, ok := q.TryDequeueBatch(16)
	if !ok || len(es) != 1 || es[0].Message().Data.(string) != "bar" {
		t.Fatalf("barrier batch: got %d entries ok=%v", len(es), ok)
	}
	if _, ok := q.TryDequeueBatch(16); ok {
		t.Fatal("batch dispatched while barrier active")
	}
	q.Complete(es[0])
	var post int
	for post < 3 {
		es, ok := q.TryDequeueBatch(16)
		if !ok {
			t.Fatalf("post-barrier harvest stalled at %d", post)
		}
		for _, e := range es {
			if e.Message().Data.(string) != "post" {
				t.Fatalf("unexpected entry %q after barrier", e.Message().Data)
			}
			post++
			q.Complete(e)
		}
	}
	q.Close()
	q.Drain()
}

// TestRunBatchPanicIsolation verifies the PR 3 contract inside a batch:
// one panicking handler releases (dead-letters) only its own entry, every
// other batch member completes, and the joined error reports the panic.
func TestRunBatchPanicIsolation(t *testing.T) {
	var dead atomic.Int32
	q := New(WithDeadLetter(func(m Message, err error) {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("dead-letter err = %v; want *PanicError", err)
		}
		if m.Data.(int) != 2 {
			t.Errorf("dead-lettered entry %v; want 2", m.Data)
		}
		dead.Add(1)
	}))
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		i := i
		err := q.Enqueue(func(any) {
			if i == 2 {
				panic("boom")
			}
			ran.Add(1)
		}, WithKey(Key(i)), WithData(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(16)
	if !ok || len(es) != 5 {
		t.Fatalf("harvest: %d entries ok=%v; want 5", len(es), ok)
	}
	err := q.RunBatch(es)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunBatch error = %v; want joined *PanicError", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d non-panicking handlers ran; want 4", got)
	}
	if got := dead.Load(); got != 1 {
		t.Fatalf("%d entries dead-lettered; want 1", got)
	}
	s := q.Stats()
	if s.Panics != 1 || s.Released != 1 || s.Completed != 4 || s.DeadLettered != 1 {
		t.Fatalf("failure counters: %s", s)
	}
	q.Close()
	q.Drain() // wedged keys would hang here
}

// TestWorkerBatchPanicMidBatch drives the panic path through the pool:
// WithWorkerBatch workers harvest multi-entry batches, injected panics
// release only their own entries, and everything else completes.
func TestWorkerBatchPanicMidBatch(t *testing.T) {
	var dead atomic.Int32
	q := New(WithShards(2), WithDeadLetter(func(Message, error) { dead.Add(1) }))
	p := Serve(context.Background(), q, 2, WithWorkerBatch(8))
	const n = 400
	var ran atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		err := q.Enqueue(func(any) {
			if i%17 == 0 {
				panic("mid-batch failure")
			}
			ran.Add(1)
		}, WithKey(Key(i%13)))
		if err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	p.Wait()
	panics := int32((n + 16) / 17)
	if got := ran.Load(); got != n-panics {
		t.Fatalf("%d handlers completed; want %d", got, n-panics)
	}
	if got := dead.Load(); got != panics {
		t.Fatalf("%d dead-lettered; want %d", got, panics)
	}
	if s := q.Stats(); s.Panics != uint64(panics) || s.Completed != uint64(n-panics) {
		t.Fatalf("counters: %s", s)
	}
}

// TestRunBatchGoexitReadmitsUnrun verifies the Goexit path: the entry
// that called runtime.Goexit dead-letters (it consumed its execution,
// and retrying it would consume a goroutine per attempt), entries
// already run complete, and the never-executed remainder is re-admitted
// at the tail with attempt counts intact rather than dead-lettered —
// it did not fail. The input slice must come back unmodified.
func TestRunBatchGoexitReadmitsUnrun(t *testing.T) {
	var dead atomic.Int32
	q := New(WithDeadLetter(func(m Message, err error) {
		if !errors.Is(err, ErrHandlerExited) || m.Data.(int) != 1 {
			t.Errorf("dead-lettered %v with %v; want entry 1 with ErrHandlerExited", m.Data, err)
		}
		dead.Add(1)
	}))
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		i := i
		err := q.Enqueue(func(any) {
			if i == 1 {
				runtime.Goexit()
			}
			ran.Add(1)
		}, WithKey(Key(i)), WithData(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(8)
	if !ok || len(es) != 5 {
		t.Fatalf("harvest: %d ok=%v; want 5", len(es), ok)
	}
	snapshot := append([]*Entry(nil), es...)
	done := make(chan struct{})
	go func() {
		defer close(done) // Goexit still runs this goroutine's defers
		q.RunBatch(es)
	}()
	<-done
	for i, e := range es {
		if e != snapshot[i] {
			t.Fatal("RunBatch modified the caller's slice")
		}
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d handlers ran before the Goexit; want 1", got)
	}
	if got := dead.Load(); got != 1 {
		t.Fatalf("%d entries dead-lettered; want only the Goexit entry", got)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("%d entries re-admitted; want 3", got)
	}
	for ran.Load() < 4 {
		es, ok := q.TryDequeueBatch(8)
		if !ok {
			t.Fatalf("re-admitted entries stalled; ran %d", ran.Load())
		}
		for _, e := range es {
			if e.Attempt() != 0 {
				t.Fatalf("re-admitted entry carries attempt %d; want 0", e.Attempt())
			}
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	q.Drain()
	if s := q.Stats(); s.Completed != 4 || s.DeadLettered != 1 {
		t.Fatalf("counters: %s", s)
	}
}

// TestTryDequeueBatchClampsMax verifies max < 1 still dispatches one
// entry (the documented "at most one" degenerate form) instead of
// spinning forever on an always-empty harvest.
func TestTryDequeueBatchClampsMax(t *testing.T) {
	q := New()
	if err := q.Enqueue(func(any) {}, WithKey(1)); err != nil {
		t.Fatal(err)
	}
	es, ok := q.TryDequeueBatch(0)
	if !ok || len(es) != 1 {
		t.Fatalf("TryDequeueBatch(0): %d entries ok=%v; want 1", len(es), ok)
	}
	q.Complete(es[0])
	q.Close()
	q.Drain()
}

// TestCoalesceRespectsBatchMax verifies coalescing cannot push a harvest
// past its batch size in messages: representatives and their merged
// messages all count against max — including across several coalescable
// runs in one harvest, where a per-run budget that forgot the earlier
// runs' merges would overflow.
func TestCoalesceRespectsBatchMax(t *testing.T) {
	q := New(WithCoalesce(0))
	bh := func([]any) {}
	enq := func(n int, opts ...EnqueueOption) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := q.Enqueue(nil, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 3 distinct-key singles, 4 on key A — then two interleavable runs:
	// 4 more on key B and 4 on key C, so one harvest can meet several
	// coalescing representatives.
	for i := 0; i < 3; i++ {
		enq(1, BatchHandler(bh), WithKey(Key(100+i)))
	}
	enq(4, BatchHandler(bh), WithKey(7))
	enq(4, BatchHandler(bh), WithKey(8))
	enq(4, BatchHandler(bh), WithKey(9))
	const max = 6
	drained := 0
	for drained < 15 {
		es, ok := q.TryDequeueBatch(max)
		if !ok {
			t.Fatalf("stalled at %d of 15", drained)
		}
		msgs := 0
		for _, e := range es {
			msgs += e.Size()
		}
		if msgs > max {
			t.Fatalf("harvest of %d messages exceeds batch max %d", msgs, max)
		}
		drained += msgs
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	if s := q.Stats(); s.MaxBatch > max || s.BatchEntries != 15 {
		t.Fatalf("batch counters: %s", s)
	}
	q.Close()
	q.Drain()
}

// TestDequeueBatchOfOneMatchesDequeueContext verifies that a batch of one
// is the single-entry dequeue: driven by one goroutine over the same
// script, DequeueContext and DequeueBatch(ctx, 1) dispatch the same
// entries in the same order, leave identical Stats — except the three
// counters that mean "dequeued through the batch API" — and end in the
// same terminal errors.
func TestDequeueBatchOfOneMatchesDequeueContext(t *testing.T) {
	noop := func(any) {}
	scripts := []struct {
		name    string
		shards  int
		enqueue func(t *testing.T, q *Queue) int // admits the script, returns how many entries must dispatch
	}{
		{"same-key chain", 1, func(t *testing.T, q *Queue) int {
			for i := 0; i < 4; i++ {
				if err := q.Enqueue(noop, WithKey(Key(7)), WithData(i)); err != nil {
					t.Fatal(err)
				}
			}
			return 4
		}},
		{"mixed modes", 4, func(t *testing.T, q *Queue) int {
			ks := distinctShardKeys(t, q, 3)
			for i, opts := range [][]EnqueueOption{
				{WithKey(ks[0])},
				{NoSync()},
				{WithKeys(ks[0], ks[1])}, // cross-shard key set
				{WithKey(ks[1]), Barge()},
				{WithKey(ks[2]), WithTTL(-time.Second)}, // expired: dead-letters, never dispatches
				{Sequential()},                          // pending barrier gating everything below
				{WithKey(ks[0])},
				{NoSync()},
				{WithKey(ks[2]), WithPriority(NumPriorities - 1)},
			} {
				if err := q.Enqueue(noop, append(opts, WithData(i))...); err != nil {
					t.Fatal(err)
				}
			}
			return 8
		}},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// run drains one fresh queue through dequeue and returns the
			// dispatch order and the comparable part of Stats.
			run := func(dequeue func(q *Queue) (*Entry, error)) ([]int, Stats) {
				q := New(WithShards(sc.shards), WithDeadLetter(func(Message, error) {}))
				want := sc.enqueue(t, q)
				q.Close()
				var order []int
				for {
					e, err := dequeue(q)
					if errors.Is(err, ErrClosed) {
						break
					}
					if err != nil {
						t.Fatalf("after %d dispatches: %v", len(order), err)
					}
					order = append(order, e.Message().Data.(int))
					q.Complete(e)
				}
				if len(order) != want {
					t.Fatalf("dispatched %v; want %d entries", order, want)
				}
				st := q.Stats()
				st.Batches, st.BatchEntries, st.MaxBatch = 0, 0, 0
				for b := range st.BandLatency {
					// Latencies are wall-clock; only their counts compare.
					st.BandLatency[b] = LatencyHistogram{Count: st.BandLatency[b].Count}
				}
				return order, st
			}
			oneOrder, oneStats := run(func(q *Queue) (*Entry, error) { return q.DequeueContext(ctx) })
			batchOrder, batchStats := run(func(q *Queue) (*Entry, error) {
				es, err := q.DequeueBatch(ctx, 1)
				if err != nil {
					return nil, err
				}
				if len(es) != 1 {
					t.Fatalf("DequeueBatch(ctx, 1) returned %d entries", len(es))
				}
				return es[0], nil
			})
			if !reflect.DeepEqual(oneOrder, batchOrder) {
				t.Fatalf("dispatch order differs:\n DequeueContext:   %v\n DequeueBatch(1): %v", oneOrder, batchOrder)
			}
			if oneStats != batchStats {
				t.Fatalf("stats differ:\n DequeueContext:   %v\n DequeueBatch(1): %v", oneStats, batchStats)
			}
		})
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	q := New()
	defer q.Close()
	for _, max := range []int{1, 8} {
		if _, err := q.DequeueBatch(cancelled, max); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx, max %d: err=%v; want context.Canceled", max, err)
		}
	}
}

// TestDrainWaitsForBatchMembers verifies Drain blocks until every member
// of an in-flight batch is resolved, not just the first.
func TestDrainWaitsForBatchMembers(t *testing.T) {
	q := New()
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(func(any) {}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(8)
	if !ok || len(es) != 4 {
		t.Fatalf("harvest: %d ok=%v", len(es), ok)
	}
	drained := make(chan struct{})
	go func() {
		q.Drain()
		close(drained)
	}()
	for _, e := range es {
		select {
		case <-drained:
			t.Fatal("Drain returned with batch members in flight")
		case <-time.After(time.Millisecond):
		}
		q.Complete(e)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after last batch member completed")
	}
	q.Close()
}

// TestCoalesceMergesIdenticalKeyRun verifies WithCoalesce: a run of
// identical-key BatchHandler messages becomes one entry, the handler sees
// every payload in enqueue order in one invocation, and the stats
// account each merged message.
func TestCoalesceMergesIdenticalKeyRun(t *testing.T) {
	q := New(WithCoalesce(0))
	var mu sync.Mutex
	var got [][]any
	bh := func(datas []any) {
		mu.Lock()
		got = append(got, datas)
		mu.Unlock()
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := q.Enqueue(nil, BatchHandler(bh), WithKeys(1, 2), WithData(i)); err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(16)
	if !ok || len(es) != 1 {
		t.Fatalf("harvest: %d entries ok=%v; want 1 coalesced entry", len(es), ok)
	}
	if es[0].Size() != n {
		t.Fatalf("entry coalesced %d messages; want %d", es[0].Size(), n)
	}
	if err := q.RunBatch(es); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != n {
		t.Fatalf("batch handler invocations: %d of sizes %v; want 1 of size %d", len(got), got, n)
	}
	for i, d := range got[0] {
		if d.(int) != i {
			t.Fatalf("payload %d out of enqueue order: %v", i, got[0])
		}
	}
	s := q.Stats()
	if s.Coalesced != n-1 || s.Dispatched != n || s.Completed != 1 {
		t.Fatalf("coalesce counters: %s", s)
	}
	if s.Dispatched != s.Completed+s.Coalesced {
		t.Fatalf("dispatched != completed + coalesced: %s", s)
	}
	q.Close()
	q.Drain()
}

// TestCoalesceMaxBoundsRun verifies WithCoalesce(max) caps the messages
// merged into one invocation.
func TestCoalesceMaxBoundsRun(t *testing.T) {
	q := New(WithCoalesce(2))
	var sizes []int
	bh := func(datas []any) { sizes = append(sizes, len(datas)) }
	for i := 0; i < 5; i++ {
		if err := q.Enqueue(nil, BatchHandler(bh), WithKey(9)); err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(16)
	if !ok {
		t.Fatal("no batch")
	}
	if err := q.RunBatch(es); err != nil {
		t.Fatal(err)
	}
	for len(sizes) < 3 {
		es, ok := q.TryDequeueBatch(16)
		if !ok {
			t.Fatalf("harvest stalled; invocation sizes so far %v", sizes)
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, s := range sizes {
		if s > 2 {
			t.Fatalf("invocation of %d payloads exceeds WithCoalesce(2): %v", s, sizes)
		}
		total += s
	}
	if total != 5 {
		t.Fatalf("handled %d payloads; want 5 (%v)", total, sizes)
	}
	q.Close()
	q.Drain()
}

// TestCoalescedReleaseRoutesEveryMessage verifies the failure policy on a
// coalesced entry: a Release retries or dead-letters every merged
// message individually, and retried messages re-dispatch as their own
// entries.
func TestCoalescedReleaseRoutesEveryMessage(t *testing.T) {
	var dead atomic.Int32
	q := New(WithCoalesce(0), WithRetry(1), WithDeadLetter(func(Message, error) { dead.Add(1) }))
	boom := errors.New("boom")
	var invocations atomic.Int32
	bh := func(datas []any) { invocations.Add(1) }
	const n = 4
	for i := 0; i < n; i++ {
		if err := q.Enqueue(nil, BatchHandler(bh), WithKey(5), WithData(i)); err != nil {
			t.Fatal(err)
		}
	}
	es, ok := q.TryDequeueBatch(16)
	if !ok || len(es) != 1 || es[0].Size() != n {
		t.Fatalf("harvest: %d entries ok=%v", len(es), ok)
	}
	q.Release(es[0], boom)
	if got := q.Stats().Retries; got != n {
		t.Fatalf("%d messages retried; want %d", got, n)
	}
	// The retried messages are fresh tail entries (attempt=1); they may
	// coalesce again among themselves but must all execute.
	handled := 0
	for handled < n {
		es, ok := q.TryDequeueBatch(16)
		if !ok {
			t.Fatalf("retries stalled at %d of %d", handled, n)
		}
		for _, e := range es {
			if e.Attempt() != 1 || !errors.Is(e.Err(), boom) {
				t.Fatalf("retried entry: attempt=%d err=%v", e.Attempt(), e.Err())
			}
			handled += e.Size()
			q.Complete(e)
		}
	}
	if dead.Load() != 0 {
		t.Fatalf("%d dead-lettered with retry budget left", dead.Load())
	}
	q.Close()
	q.Drain()
}

// TestCoalesceStopsAtSequentialBarrier verifies a coalesce run cannot
// cross a pending sequential barrier's gate: a message enqueued after
// the barrier must not ride a pre-barrier invocation, exactly as an
// unmerged entry must not be harvested past the gate.
func TestCoalesceStopsAtSequentialBarrier(t *testing.T) {
	q := New(WithCoalesce(0))
	var mu sync.Mutex
	var order []string
	bh := func(datas []any) {
		mu.Lock()
		for _, d := range datas {
			order = append(order, d.(string))
		}
		mu.Unlock()
	}
	if err := q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithData("pre")); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(func(any) {
		mu.Lock()
		order = append(order, "barrier")
		mu.Unlock()
	}, Sequential()); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithData("post")); err != nil {
		t.Fatal(err)
	}
	es, ok := q.TryDequeueBatch(8)
	if !ok || len(es) != 1 || es[0].Size() != 1 {
		t.Fatalf("pre-barrier harvest: %d entries, size %d; want 1 entry of size 1",
			len(es), es[0].Size())
	}
	if err := q.RunBatch(es); err != nil {
		t.Fatal(err)
	}
	for len(order) < 3 {
		es, ok := q.TryDequeueBatch(8)
		if !ok {
			t.Fatalf("harvest stalled; order so far %v", order)
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"pre", "barrier", "post"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("execution order %v; want %v", order, want)
		}
	}
	q.Close()
	q.Drain()
}

// TestCoalesceRequiresSameHandler verifies a run only merges messages
// sharing the same Batch handler function value: merging would discard
// the later message's handler, so distinct handlers (and distinct
// closures with their own captured state) must dispatch as their own
// entries even on identical keys.
func TestCoalesceRequiresSameHandler(t *testing.T) {
	q := New(WithCoalesce(0))
	var aRan, bRan atomic.Int32
	mkHandler := func(ctr *atomic.Int32) func([]any) {
		return func(datas []any) { ctr.Add(int32(len(datas))) }
	}
	ha, hb := mkHandler(&aRan), mkHandler(&bRan)
	for i := 0; i < 2; i++ {
		if err := q.Enqueue(nil, BatchHandler(ha), WithKey(7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := q.Enqueue(nil, BatchHandler(hb), WithKey(7)); err != nil {
			t.Fatal(err)
		}
	}
	handled := 0
	for handled < 4 {
		es, ok := q.TryDequeueBatch(8)
		if !ok {
			t.Fatalf("stalled at %d of 4", handled)
		}
		for _, e := range es {
			handled += e.Size()
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	if aRan.Load() != 2 || bRan.Load() != 2 {
		t.Fatalf("handler invocation payloads a=%d b=%d; want 2 and 2 — a merge crossed handlers",
			aRan.Load(), bRan.Load())
	}
	q.Close()
	q.Drain()
}

// TestCoalesceRetriedEntriesDoNotMerge verifies a retried (attempt > 0)
// message never coalesces — neither as representative nor as a merge
// candidate — so attempt counts stay per-message-accurate.
func TestCoalesceRetriedEntriesDoNotMerge(t *testing.T) {
	q := New(WithCoalesce(0), WithRetry(2))
	bh := func([]any) {}
	if err := q.Enqueue(nil, BatchHandler(bh), WithKey(3)); err != nil {
		t.Fatal(err)
	}
	es, ok := q.TryDequeueBatch(4)
	if !ok || len(es) != 1 {
		t.Fatal("setup harvest failed")
	}
	q.Release(es[0], errors.New("transient")) // re-enqueued with attempt=1
	if err := q.Enqueue(nil, BatchHandler(bh), WithKey(3)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for total < 2 {
		es, ok := q.TryDequeueBatch(4)
		if !ok {
			t.Fatalf("stalled at %d", total)
		}
		for _, e := range es {
			if e.Size() != 1 {
				t.Fatalf("retried message coalesced into a %d-message entry", e.Size())
			}
			total++
			q.Complete(e)
		}
	}
	q.Close()
	q.Drain()
}

// TestMuxTryDequeueBatch verifies the mux-level batch fill: entries come
// back grouped by owning queue, drawn across member queues off the
// snapshot, and the total respects max.
func TestMuxTryDequeueBatch(t *testing.T) {
	m := NewMux()
	qa, err := m.Queue("a")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := m.Queue("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := qa.Enqueue(func(any) {}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
		if err := qb.Enqueue(func(any) {}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*Queue]int{}
	total := 0
	for total < 6 {
		batches, ok := m.TryDequeueBatch(4)
		if !ok {
			t.Fatalf("mux harvest stalled at %d", total)
		}
		got := 0
		for _, b := range batches {
			if b.Queue != qa && b.Queue != qb {
				t.Fatal("batch from unknown queue")
			}
			seen[b.Queue] += len(b.Entries)
			got += len(b.Entries)
			if err := b.Queue.RunBatch(b.Entries); err != nil {
				t.Fatal(err)
			}
		}
		if got > 4 {
			t.Fatalf("mux batch of %d exceeds max 4", got)
		}
		total += got
	}
	if seen[qa] != 3 || seen[qb] != 3 {
		t.Fatalf("per-queue dispatch counts: %v", seen)
	}
	if ms := m.Stats(); ms.Dispatched != 6 {
		t.Fatalf("mux dispatched = %d; want 6", ms.Dispatched)
	}
	m.Close()
}

// TestMuxPoolWorkerBatch runs the batched mux pool end to end across two
// virtual queues and checks nothing is lost and per-key mutual exclusion
// holds within each queue.
func TestMuxPoolWorkerBatch(t *testing.T) {
	m := NewMux()
	var ran atomic.Int32
	var active [2][8]atomic.Int32
	var bad atomic.Int32
	queues := make([]*Queue, 2)
	for qi := range queues {
		q, err := m.Queue([]string{"a", "b"}[qi])
		if err != nil {
			t.Fatal(err)
		}
		queues[qi] = q
	}
	p := ServeMux(context.Background(), m, 3, WithWorkerBatch(8))
	const perQueue = 300
	for i := 0; i < perQueue; i++ {
		for qi, q := range queues {
			qi := qi
			k := i % 8
			if err := q.Enqueue(func(any) {
				if active[qi][k].Add(1) != 1 {
					bad.Add(1)
				}
				ran.Add(1)
				active[qi][k].Add(-1)
			}, WithKey(Key(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Close()
	p.Wait()
	if got := ran.Load(); got != 2*perQueue {
		t.Fatalf("ran %d handlers; want %d", got, 2*perQueue)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", bad.Load())
	}
}

// TestBatchMessageValidation covers the exactly-one-handler rule.
func TestBatchMessageValidation(t *testing.T) {
	q := New()
	defer q.Close()
	if err := q.Enqueue(nil); !errors.Is(err, ErrNilHandler) {
		t.Fatalf("nil handler: err=%v; want ErrNilHandler", err)
	}
	err := q.Enqueue(func(any) {}, BatchHandler(func([]any) {}))
	if err == nil {
		t.Fatal("both Handler and Batch accepted")
	}
	if err := q.EnqueueMessage(Message{Batch: func([]any) {}, Keys: []Key{1}}); err != nil {
		t.Fatalf("Batch-only message rejected: %v", err)
	}
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("batch-form message not dispatchable")
	}
	q.Complete(e)
}

// TestDequeueBatchBlocksAndWakes exercises the blocking path: a consumer
// parked in DequeueBatch is woken by a later enqueue and harvests the
// whole burst (single eventcount interaction per batch, not per entry).
func TestDequeueBatchBlocksAndWakes(t *testing.T) {
	q := New()
	type res struct {
		es  []*Entry
		err error
	}
	ch := make(chan res, 1)
	go func() {
		es, err := q.DequeueBatch(context.Background(), 16)
		ch <- res{es, err}
	}()
	select {
	case r := <-ch:
		t.Fatalf("DequeueBatch returned on empty queue: %v %v", r.es, r.err)
	case <-time.After(5 * time.Millisecond):
	}
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(func(any) {}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-ch:
		if r.err != nil || len(r.es) == 0 {
			t.Fatalf("DequeueBatch: %d entries err=%v", len(r.es), r.err)
		}
		for _, e := range r.es {
			q.Complete(e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueBatch not woken by enqueue")
	}
	// Drain any entries the blocked consumer left behind, then close.
	for {
		e, ok := q.TryDequeue()
		if !ok {
			break
		}
		q.Complete(e)
	}
	q.Close()
	if _, err := q.DequeueBatch(context.Background(), 16); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close+drain: %v; want ErrClosed", err)
	}
}
