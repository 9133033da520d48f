package pdq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustEnqueue(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
}

func TestEnqueueDequeueSingle(t *testing.T) {
	q := New()
	ran := false
	mustEnqueue(t, q.Enqueue(func(d any) { ran = d.(int) == 42 }, WithKey(7), WithData(42)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("expected dispatchable entry")
	}
	if ks := e.Message().Keys; len(ks) != 1 || ks[0] != 7 {
		t.Fatalf("keys = %v, want [7]", ks)
	}
	if e.Seq() != 1 {
		t.Fatalf("seq = %d, want 1", e.Seq())
	}
	e.Message().Handler(e.Message().Data)
	q.Complete(e)
	if !ran {
		t.Fatal("handler did not run with its data")
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not empty after complete: len=%d inflight=%d", q.Len(), q.InFlight())
	}
}

func TestNilHandlerRejected(t *testing.T) {
	q := New()
	if err := q.Enqueue(nil, WithKey(1)); !errors.Is(err, ErrNilHandler) {
		t.Fatalf("err = %v, want ErrNilHandler", err)
	}
}

func TestBadOptionCombos(t *testing.T) {
	q := New()
	nop := func(any) {}
	if err := q.Enqueue(nop, Sequential(), WithKey(1)); err == nil {
		t.Fatal("sequential + key accepted")
	}
	if err := q.Enqueue(nop, NoSync(), WithKeys(1, 2)); err == nil {
		t.Fatal("nosync + keys accepted")
	}
	if err := q.Enqueue(nop, Sequential(), NoSync()); err == nil {
		t.Fatal("conflicting modes accepted")
	}
	// Repeating the same mode is redundant but legal.
	mustEnqueue(t, q.Enqueue(nop, Sequential(), Sequential()))
}

func TestSameKeySerializes(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(5)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(5)))
	e1, ok := q.TryDequeue()
	if !ok {
		t.Fatal("first entry should dispatch")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("second entry with same key dispatched while first in flight")
	}
	q.Complete(e1)
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("second entry should dispatch after first completes")
	}
	if e2.Seq() != 2 {
		t.Fatalf("second dispatch seq = %d, want 2 (FIFO per key)", e2.Seq())
	}
	q.Complete(e2)
}

func TestDistinctKeysDispatchTogether(t *testing.T) {
	q := New()
	nop := func(any) {}
	for k := Key(1); k <= 4; k++ {
		mustEnqueue(t, q.Enqueue(nop, WithKey(k)))
	}
	var got []*Entry
	for {
		e, ok := q.TryDequeue()
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 4 {
		t.Fatalf("dispatched %d entries concurrently, want 4", len(got))
	}
	for _, e := range got {
		q.Complete(e)
	}
}

func TestFIFOWithinKeyAcrossInterleaving(t *testing.T) {
	q := New()
	nop := func(any) {}
	// Interleave two keys; each key's entries must come out in order.
	for i := 0; i < 6; i++ {
		mustEnqueue(t, q.Enqueue(nop, WithKey(Key(i%2)), WithData(i)))
	}
	lastSeq := map[Key]uint64{}
	for completed := 0; completed < 6; {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatal("queue stalled")
		}
		k := e.Message().Keys[0]
		if e.Seq() <= lastSeq[k] {
			t.Fatalf("key %d dispatched seq %d after %d", k, e.Seq(), lastSeq[k])
		}
		lastSeq[k] = e.Seq()
		q.Complete(e)
		completed++
	}
}

func TestSequentialBarrier(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	mustEnqueue(t, q.Enqueue(nop, Sequential()))
	mustEnqueue(t, q.Enqueue(nop, WithKey(2)))

	e1, ok := q.TryDequeue()
	if !ok || e1.Message().Keys[0] != 1 {
		t.Fatal("entry before barrier should dispatch first")
	}
	// Barrier must not dispatch while e1 is in flight, and must also block
	// the key-2 entry behind it.
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dispatch crossed a pending sequential barrier")
	}
	q.Complete(e1)
	seq, ok := q.TryDequeue()
	if !ok || seq.Message().Mode != ModeSequential {
		t.Fatal("sequential entry should dispatch once machine is idle")
	}
	// While the barrier runs, nothing else dispatches.
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dispatch during sequential handler execution")
	}
	q.Complete(seq)
	e2, ok := q.TryDequeue()
	if !ok || e2.Message().Keys[0] != 2 {
		t.Fatal("entry after barrier should dispatch after barrier completes")
	}
	q.Complete(e2)
}

func TestNoSyncBypassesKeyConflicts(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(9)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(9)))
	mustEnqueue(t, q.Enqueue(nop, NoSync()))
	e1, _ := q.TryDequeue()
	e2, ok := q.TryDequeue()
	if !ok || e2.Message().Mode != ModeNoSync {
		t.Fatal("nosync entry should dispatch despite key conflict ahead of it")
	}
	q.Complete(e1)
	q.Complete(e2)
}

func TestNoSyncDoesNotCrossActiveBarrier(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, Sequential()))
	mustEnqueue(t, q.Enqueue(nop, NoSync()))
	seq, ok := q.TryDequeue()
	if !ok || seq.Message().Mode != ModeSequential {
		t.Fatal("sequential should dispatch on idle machine")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("nosync dispatched during sequential execution")
	}
	q.Complete(seq)
	ns, ok := q.TryDequeue()
	if !ok || ns.Message().Mode != ModeNoSync {
		t.Fatal("nosync should dispatch after barrier")
	}
	q.Complete(ns)
}

func TestUnkeyedBehavesLikeNoSync(t *testing.T) {
	// A keyed message with an empty key set synchronizes with nothing.
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(3)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(3)))
	mustEnqueue(t, q.Enqueue(nop)) // no keys
	e1, _ := q.TryDequeue()
	e2, ok := q.TryDequeue()
	if !ok || len(e2.Message().Keys) != 0 {
		t.Fatal("unkeyed entry should dispatch past the key conflict")
	}
	q.Complete(e1)
	q.Complete(e2)
}

// TestDeepBlockedPrefix: a free-key entry behind 10 000 entries blocked on
// one in-flight key dispatches at once — there is no search window for
// the blocked prefix to exhaust — and the conflict counters charge each
// entry at most once, at admission, however often dispatch is attempted.
func TestDeepBlockedPrefix(t *testing.T) {
	q := New()
	nop := func(any) {}
	const depth = 10_000
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	e1, _ := q.TryDequeue()
	for i := 0; i < depth; i++ {
		mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	}
	mustEnqueue(t, q.Enqueue(nop, WithKey(2)))
	e2, ok := q.TryDequeue()
	if !ok || e2.Message().Keys[0] != 2 {
		t.Fatal("free-key entry behind the blocked prefix did not dispatch")
	}
	for i := 0; i < 100; i++ {
		if _, ok := q.TryDequeue(); ok {
			t.Fatal("dispatched past in-flight key 1")
		}
	}
	s := q.Stats()
	if probes := s.KeyConflicts + s.OrderConflicts; probes > s.Enqueued {
		t.Fatalf("conflicts = %d for %d admitted entries; want at most one each", probes, s.Enqueued)
	}
	if s.KeyConflicts != depth || s.WindowStalls != 0 {
		t.Fatalf("KeyConflicts = %d, WindowStalls = %d; want %d, 0", s.KeyConflicts, s.WindowStalls, depth)
	}
	q.Complete(e2)
	q.Complete(e1)
	for i := 0; i < depth; i++ {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("prefix entry %d did not dispatch after its predecessor completed", i)
		}
		q.Complete(e)
	}
}

func TestCapacityRejects(t *testing.T) {
	q := New(WithCapacity(2))
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(2)))
	if err := q.Enqueue(nop, WithKey(3)); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if q.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
	// Dispatching frees capacity (pending shrinks even before Complete).
	e, _ := q.TryDequeue()
	mustEnqueue(t, q.Enqueue(nop, WithKey(3)))
	q.Complete(e)
}

func TestEnqueueWaitAppliesBackpressure(t *testing.T) {
	q := New(WithCapacity(1))
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	unblocked := make(chan error, 1)
	go func() {
		unblocked <- q.EnqueueWait(context.Background(), nop, WithKey(2))
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("EnqueueWait returned %v on a full queue without space freeing", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Dispatching the first entry frees a slot and must release the waiter.
	e, _ := q.TryDequeue()
	if err := <-unblocked; err != nil {
		t.Fatalf("EnqueueWait after space freed: %v", err)
	}
	q.Complete(e)
	if got := q.Stats().EnqueueWaits; got == 0 {
		t.Fatal("EnqueueWaits not counted")
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want the waited entry", q.Len())
	}
}

func TestEnqueueWaitRespectsContext(t *testing.T) {
	q := New(WithCapacity(1))
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.EnqueueWait(ctx, nop, WithKey(2)) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EnqueueWait ignored context cancellation")
	}
	if q.Len() != 1 {
		t.Fatal("cancelled EnqueueWait must not enqueue")
	}
}

func TestEnqueueWaitClosedQueue(t *testing.T) {
	q := New(WithCapacity(1))
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	done := make(chan error, 1)
	go func() { done <- q.EnqueueWait(context.Background(), nop, WithKey(2)) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EnqueueWait did not observe Close")
	}
}

func TestEnqueueWaitUnboundedNeverBlocks(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		if err := q.EnqueueWait(context.Background(), func(any) {}, WithKey(1)); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("pending = %d, want 100", q.Len())
	}
}

func TestDequeueContextCancel(t *testing.T) {
	q := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.DequeueContext(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DequeueContext ignored cancellation")
	}
}

func TestDequeueContextDelivers(t *testing.T) {
	q := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e, err := q.DequeueContext(context.Background())
		if err != nil {
			t.Errorf("DequeueContext: %v", err)
			return
		}
		e.Message().Handler(e.Message().Data)
		q.Complete(e)
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer block first
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1)))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked DequeueContext missed the enqueue")
	}
	if _, err := q.DequeueContext(contextWithImmediateDeadline(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded on empty queue", err)
	}
}

func contextWithImmediateDeadline(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

func TestCloseRejectsAndDrains(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	q.Close()
	if err := q.Enqueue(nop, WithKey(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	e, ok := q.Dequeue()
	if !ok {
		t.Fatal("pending entry should still dispatch after close")
	}
	q.Complete(e)
	if _, err := q.DequeueContext(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed after drain", err)
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	q := New()
	release := make(chan struct{})
	started := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) { close(started); <-release }, WithKey(1)))
	e, _ := q.TryDequeue()
	go func() {
		m := e.Message()
		m.Handler(m.Data)
		q.Complete(e)
	}()
	<-started
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
		t.Fatal("Drain returned while a handler was in flight")
	default:
	}
	close(release)
	<-done
}

func TestStatsCounts(t *testing.T) {
	q := New()
	nop := func(any) {}
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	mustEnqueue(t, q.Enqueue(nop, WithKey(1)))
	e, _ := q.TryDequeue()
	q.TryDequeue() // conflict
	q.Complete(e)
	s := q.Stats()
	if s.Enqueued != 2 || s.Dispatched != 1 || s.Completed != 1 || s.KeyConflicts+s.OrderConflicts != 1 {
		t.Fatalf("unexpected stats: %s", s)
	}
	if s.MaxPending != 2 {
		t.Fatalf("MaxPending = %d, want 2", s.MaxPending)
	}
	if s.MaxKeySet != 1 {
		t.Fatalf("MaxKeySet = %d, want 1", s.MaxKeySet)
	}
}

func TestModeString(t *testing.T) {
	if ModeKeyed.String() != "keyed" || ModeSequential.String() != "sequential" || ModeNoSync.String() != "nosync" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestCompleteMisuse(t *testing.T) {
	q := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Complete of never-dispatched key should panic")
		}
	}()
	q.Complete(&Entry{msg: Message{Keys: []Key{1}, Mode: ModeKeyed}})
}

func TestConcurrentEnqueueDequeue(t *testing.T) {
	q := New()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = q.Enqueue(func(any) {}, WithKey(Key(i%17)), WithData(i))
		}
		q.Close()
	}()
	var handled int
	go func() {
		defer wg.Done()
		for {
			e, ok := q.Dequeue()
			if !ok {
				return
			}
			handled++
			q.Complete(e)
		}
	}()
	wg.Wait()
	if handled != n {
		t.Fatalf("handled %d, want %d", handled, n)
	}
}

func TestHandlerBindAndFunc(t *testing.T) {
	q := New()
	var got int64
	add := Handler[int64](func(v int64) { got += v })
	mustEnqueue(t, q.Enqueue(add.Bind(25), WithKey(1)))
	mustEnqueue(t, q.Enqueue(add.Func(), WithKey(1), WithData(int64(17))))
	mustEnqueue(t, q.Enqueue(add.Func(), WithKey(1))) // nil data -> zero value
	for i := 0; i < 3; i++ {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatal("stalled")
		}
		e.Message().Handler(e.Message().Data)
		q.Complete(e)
	}
	if got != 42 {
		t.Fatalf("got = %d, want 42", got)
	}
}
