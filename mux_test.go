package pdq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMuxProcessesAllQueues(t *testing.T) {
	m := NewMux()
	var counts [3]atomic.Int64
	names := []string{"netA", "netB", "netC"}
	const per = 2000
	for qi, name := range names {
		q, err := m.Queue(name)
		if err != nil {
			t.Fatal(err)
		}
		qi := qi
		for i := 0; i < per; i++ {
			if err := q.Enqueue(func(any) { counts[qi].Add(1) }, WithKey(Key(i%13))); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := ServeMux(context.Background(), m, 4)
	m.Close()
	p.Wait()
	for qi := range counts {
		if got := counts[qi].Load(); got != per {
			t.Fatalf("queue %d handled %d, want %d", qi, got, per)
		}
	}
	if s := m.Stats(); s.Queues != 3 || s.Dispatched != 3*per {
		t.Fatalf("mux stats = %v", s)
	}
}

func TestMuxQueueLookupIdempotent(t *testing.T) {
	m := NewMux()
	a, _ := m.Queue("x")
	// Opts for an existing name are rejected with ErrQueueExists, but the
	// existing queue still comes back (see TestMuxQueueExistsSentinel).
	b, err := m.Queue("x", WithCapacity(1))
	if !errors.Is(err, ErrQueueExists) {
		t.Fatalf("err = %v, want ErrQueueExists for opts on an existing name", err)
	}
	if a != b {
		t.Fatal("same name returned distinct queues")
	}
	if len(m.Names()) != 1 {
		t.Fatalf("names = %v", m.Names())
	}
	m.Close()
	if _, err := m.Queue("fresh"); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("err = %v, want ErrMuxClosed", err)
	}
}

func TestMuxIsolationBetweenQueues(t *testing.T) {
	// The same key on two virtual queues must NOT serialize: protection
	// domains are independent.
	m := NewMux()
	qa, _ := m.Queue("a")
	qb, _ := m.Queue("b")
	var wg sync.WaitGroup
	wg.Add(2)
	block := make(chan struct{})
	_ = qa.Enqueue(func(any) { wg.Done(); <-block }, WithKey(7))
	_ = qb.Enqueue(func(any) { wg.Done(); <-block }, WithKey(7))
	p := ServeMux(context.Background(), m, 2)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done: // both key-7 handlers running concurrently
	case <-time.After(5 * time.Second):
		t.Fatal("equal keys on distinct virtual queues serialized")
	}
	close(block)
	m.Close()
	p.Wait()
}

func TestMuxBarrierScopedToQueue(t *testing.T) {
	// A sequential barrier on one virtual queue must not stop another
	// queue from dispatching.
	m := NewMux()
	qa, _ := m.Queue("a")
	qb, _ := m.Queue("b")
	inBarrier := make(chan struct{})
	release := make(chan struct{})
	_ = qa.Enqueue(func(any) { close(inBarrier); <-release }, Sequential())
	var bRan atomic.Bool
	p := ServeMux(context.Background(), m, 2)
	<-inBarrier
	bDone := make(chan struct{})
	_ = qb.Enqueue(func(any) { bRan.Store(true); close(bDone) }, WithKey(1))
	select {
	case <-bDone:
	case <-time.After(5 * time.Second):
		t.Fatal("queue b blocked by queue a's barrier")
	}
	close(release)
	m.Close()
	p.Wait()
	if !bRan.Load() {
		t.Fatal("queue b handler did not run")
	}
}

func TestMuxFairnessUnderLoad(t *testing.T) {
	// One flooded queue must not starve a trickle queue: round-robin
	// alternates between dispatchable queues. Stated in dispatch order on
	// one goroutine — no pool, no timing — so the bound is the mux's own:
	// with strict alternation the i-th trickle entry is at worst the
	// 2i-th dispatch, so all of them fall within the first 2*trickles+1.
	m := NewMux()
	flood, _ := m.Queue("flood")
	trickle, _ := m.Queue("trickle")
	const floods, trickles = 5000, 50
	noop := func(any) {}
	for i := 0; i < floods; i++ {
		_ = flood.Enqueue(noop, WithKey(Key(i)))
	}
	for i := 0; i < trickles; i++ {
		_ = trickle.Enqueue(noop, WithKey(Key(i)))
	}
	floodDone, trickleDone := 0, 0
	for n := 1; ; n++ {
		q, e, ok := m.TryDequeue()
		if !ok {
			break
		}
		if q == trickle {
			trickleDone++
			if n > 2*trickles+1 {
				t.Fatalf("trickle queue starved: entry %d was dispatch %d, after %d flood dispatches", trickleDone, n, floodDone)
			}
		} else {
			floodDone++
		}
		q.Complete(e)
	}
	if trickleDone != trickles || floodDone != floods {
		t.Fatalf("work lost: %d/%d trickle, %d/%d flood", trickleDone, trickles, floodDone, floods)
	}
}

func TestMuxManualDequeue(t *testing.T) {
	m := NewMux()
	q, _ := m.Queue("only")
	_ = q.Enqueue(func(any) {}, WithKey(1), WithData("payload"))
	mq, e, ok := m.TryDequeue()
	if !ok || mq != q || e.Message().Data.(string) != "payload" {
		t.Fatal("manual mux dequeue failed")
	}
	if _, _, ok := m.TryDequeue(); ok {
		t.Fatal("phantom entry")
	}
	mq.Complete(e)
	m.Close()
	if _, _, ok := m.Dequeue(); ok {
		t.Fatal("Dequeue should report drain after close")
	}
}

func TestMuxDequeueContextCancel(t *testing.T) {
	m := NewMux()
	_, _ = m.Queue("idle")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := m.DequeueContext(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mux DequeueContext ignored cancellation")
	}
	m.Close()
	if _, _, err := m.DequeueContext(context.Background()); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("err = %v, want ErrMuxClosed after close+drain", err)
	}
}

// TestMuxStopReleasesWorkers: Stop reaches workers parked on an idle
// queue, through either door into the worker loop, and leaves no goroutine
// behind — neither a worker nor a cancellation wake helper.
func TestMuxStopReleasesWorkers(t *testing.T) {
	for _, k := range serveKinds {
		t.Run(k.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, _, p := k.start(3)
			if !eventually(func() bool { return q.solo.pk.waiters.Load() == 3 }) {
				t.Fatalf("%d of 3 workers parked", q.solo.pk.waiters.Load())
			}
			done := make(chan struct{})
			go func() { p.Stop(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop did not release idle workers")
			}
			checkNoLeakedGoroutines(t, base)
		})
	}
}

// TestMuxPoolChainHandoff: the worker loop rides RunNext exactly while its
// mux holds one queue. A one-queue ServeMux drains a deep single-key chain
// link to link; with a sibling queue the pool takes no handoff at all — a
// handoff falls back to the oldest ready entry of the same shard, so a
// riding worker would never look at the sibling — and the one worker's
// dispatch order meets TestMuxFairnessUnderLoad's bound: the i-th trickle
// entry is at worst the 2i-th dispatch.
func TestMuxPoolChainHandoff(t *testing.T) {
	const chain, trickles = 1000, 50
	noop := func(any) {}

	m := NewMux()
	q, _ := m.Queue("only")
	for i := 0; i < chain; i++ {
		mustEnqueue(t, q.Enqueue(noop, WithKey(1)))
	}
	p := ServeMux(context.Background(), m, 2)
	m.Close()
	p.Wait()
	if s := q.Stats(); s.Completed != chain || s.ChainHandoffs < chain*9/10 {
		t.Fatalf("one-queue mux: %d completed, %d chain handoffs, want %d and >= %d", s.Completed, s.ChainHandoffs, chain, chain*9/10)
	}

	m = NewMux()
	flood, _ := m.Queue("flood")
	trickle, _ := m.Queue("trickle")
	var order []*Queue // written by the one worker's handlers
	for i := 0; i < chain; i++ {
		mustEnqueue(t, flood.Enqueue(func(any) { order = append(order, flood) }, WithKey(1)))
	}
	for i := 0; i < trickles; i++ {
		mustEnqueue(t, trickle.Enqueue(func(any) { order = append(order, trickle) }, WithKey(Key(i))))
	}
	p = ServeMux(context.Background(), m, 1)
	m.Close()
	p.Wait()
	if len(order) != chain+trickles {
		t.Fatalf("work lost: %d of %d dispatched", len(order), chain+trickles)
	}
	seen := 0
	for n, from := range order {
		if from == trickle {
			if seen++; n+1 > 2*trickles+1 {
				t.Fatalf("trickle queue starved: entry %d was dispatch %d", seen, n+1)
			}
		}
	}
	if h := flood.Stats().ChainHandoffs + trickle.Stats().ChainHandoffs; h != 0 {
		t.Fatalf("two-queue mux: the pool took %d chain handoffs, want 0", h)
	}
}

// TestMuxMemberDequeueSharesParker: a member queue's own Dequeue callers
// sleep on the mux's parker beside the mux's workers but serve only that
// member. Wake counts are exact, so a Signal for a sibling's entry that
// went to such a sleeper — here the longest-parked one, which a Signal
// picks first — would be swallowed while the worker that could run the
// entry sleeps on; with a partial waiter published every sleeper is woken.
func TestMuxMemberDequeueSharesParker(t *testing.T) {
	m := NewMux()
	a, _ := m.Queue("a")
	b, _ := m.Queue("b")
	ctx, cancel := context.WithCancel(context.Background())
	direct := make(chan error, 1)
	go func() {
		_, err := a.DequeueContext(ctx)
		direct <- err
	}()
	if !eventually(func() bool { return m.pk.waiters.Load() == 1 }) {
		t.Fatal("the member's own consumer did not park on the mux's parker")
	}
	p := ServeMux(context.Background(), m, 1)
	if !eventually(func() bool { return m.pk.waiters.Load() == 2 }) {
		t.Fatal("the mux worker did not park")
	}
	ran := make(chan struct{})
	mustEnqueue(t, b.Enqueue(func(any) { close(ran) }, WithKey(1)))
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a sibling's entry was stranded: its wake went to a consumer that serves only queue a")
	}
	cancel()
	if err := <-direct; !errors.Is(err, context.Canceled) {
		t.Fatalf("direct consumer returned %v, want context.Canceled", err)
	}
	m.Close()
	p.Wait()
}

func TestMuxConcurrentProducers(t *testing.T) {
	m := NewMux()
	var total atomic.Int64
	p := ServeMux(context.Background(), m, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q, err := m.Queue(string(rune('a' + w%2)))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				if err := q.Enqueue(func(any) { total.Add(1) }, WithKey(Key(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m.Close()
	p.Wait()
	if total.Load() != 2000 {
		t.Fatalf("handled %d, want 2000", total.Load())
	}
	if p.Workers() != 4 {
		t.Fatal("worker count wrong")
	}
}

func TestMuxKeySetsIndependentAcrossQueues(t *testing.T) {
	// Overlapping key sets serialize within one virtual queue but not
	// across queues.
	m := NewMux()
	qa, _ := m.Queue("a")
	qb, _ := m.Queue("b")
	nop := func(any) {}
	_ = qa.Enqueue(nop, WithKeys(1, 2))
	_ = qa.Enqueue(nop, WithKeys(2, 3)) // blocked within a
	_ = qb.Enqueue(nop, WithKeys(1, 2)) // same set on b: independent
	_, e1, ok := m.TryDequeue()
	if !ok {
		t.Fatal("first dispatch failed")
	}
	gotQ, e2, ok := m.TryDequeue()
	if !ok || gotQ != qb {
		t.Fatal("queue b's identical key set should dispatch despite a's in-flight set")
	}
	if _, _, ok := m.TryDequeue(); ok {
		t.Fatal("a's overlapping {2,3} dispatched concurrently")
	}
	qa.Complete(e1)
	qb.Complete(e2)
	_, e3, ok := m.TryDequeue()
	if !ok {
		t.Fatal("a's {2,3} should dispatch after {1,2} completes")
	}
	qa.Complete(e3)
	m.Close()
}

// TestMuxTryDequeueWithoutMuxLock: the dispatch scan must not serialize
// behind m.mu — a TryDequeue while the mux lock is held (queue-set
// mutation in another goroutine) must still complete.
func TestMuxTryDequeueWithoutMuxLock(t *testing.T) {
	m := NewMux()
	q, err := m.Queue("a")
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1)))

	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if qq, e, ok := m.TryDequeue(); ok {
			qq.Complete(e)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Mux.TryDequeue serialized behind the mux lock")
	}
}

// TestMuxPoolDispatchesAcrossQueuesInParallel: a multi-worker MuxPool
// must keep dispatching while the mux lock is held elsewhere — the mux
// scan is lock-free with respect to m.mu. An implementation that
// re-serializes dispatch through m.mu cannot dispatch a single entry
// during the locked phase and times out at the first-dispatch check.
func TestMuxPoolDispatchesAcrossQueuesInParallel(t *testing.T) {
	const (
		workers  = 4
		perQueue = 64
	)
	m := NewMux()
	qs := make([]*Queue, workers)
	for i := range qs {
		q, err := m.Queue(fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	var once sync.Once
	first := make(chan struct{})
	allDone := make(chan struct{})
	var done atomic.Int32
	handler := func(any) {
		once.Do(func() { close(first) })
		if int(done.Add(1)) == workers*perQueue {
			close(allDone)
		}
	}

	// Hold the mux lock for the start of the dispatch phase. At least one
	// worker always wins a member queue's dispatch lock, so with m.mu out
	// of the dispatch path the first handler is guaranteed to run while
	// m.mu is still held.
	m.mu.Lock()
	for i, q := range qs {
		for j := 0; j < perQueue; j++ {
			mustEnqueue(t, q.Enqueue(handler, WithKey(Key(i))))
		}
	}
	pool := ServeMux(context.Background(), m, workers)
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		m.mu.Unlock()
		t.Fatal("mux dispatch re-serialized behind m.mu: no worker dispatched while the lock was held")
	}
	m.mu.Unlock()

	select {
	case <-allDone:
	case <-time.After(10 * time.Second):
		t.Fatal("mux pool failed to drain all member queues")
	}
	m.Close()
	pool.Wait()
	if st := m.Stats(); st.Dispatched != workers*perQueue {
		t.Fatalf("mux dispatched %d entries, want %d", st.Dispatched, workers*perQueue)
	}
}

// TestMuxPoolWorkerSurvivesPanic: MuxPool workers run entries through the
// owning queue's Run, so a panicking handler follows that queue's
// retry/dead-letter policy and the worker keeps serving other queues.
func TestMuxPoolWorkerSurvivesPanic(t *testing.T) {
	m := NewMux()
	dlCh := make(chan error, 1)
	q, err := m.Queue("a", WithRetry(1), WithDeadLetter(func(_ Message, err error) { dlCh <- err }))
	if err != nil {
		t.Fatal(err)
	}
	pool := ServeMux(context.Background(), m, 1)
	mustEnqueue(t, q.Enqueue(func(any) { panic("mux boom") }, WithKey(9)))

	select {
	case err := <-dlCh:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("dead-letter error = %v, want *PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("panicking handler never dead-lettered through the mux pool")
	}
	done := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) { close(done) }, WithKey(9)))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("mux worker did not survive the handler panic")
	}
	m.Close()
	pool.Wait()
}
