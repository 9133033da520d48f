package pdq

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainOnClosedEmptyQueue: Drain of an already-closed, already-empty
// queue must return immediately — there is no completion left to notify
// the waiter.
func TestDrainOnClosedEmptyQueue(t *testing.T) {
	q := New()
	q.Close()
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on a closed empty queue")
	}
}

// TestDrainAfterCloseWithPendingWork: Drain called after Close but before
// the pool has drained must still return once everything completes.
func TestDrainAfterCloseWithPendingWork(t *testing.T) {
	q := New()
	var count atomic.Int64
	for i := 0; i < 200; i++ {
		if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(i%9))); err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, 4)
	q.Close()
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not observe the post-close drain")
	}
	p.Wait()
	if count.Load() != 200 {
		t.Fatalf("handled %d, want 200", count.Load())
	}
}

// TestDrainCloseEnqueueWaitRace runs Drain, Close, and EnqueueWait
// concurrently against a small bounded queue under a live pool. Run with
// -race. Every accepted message must be handled, every Drain must return,
// and EnqueueWait may only fail with ErrClosed (or context errors, unused
// here) once Close lands.
func TestDrainCloseEnqueueWaitRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		q := New(WithCapacity(4), WithShards(1<<(round%3)))
		var handled, accepted atomic.Int64
		p := Serve(context.Background(), q, 3)

		var wg sync.WaitGroup
		// Producers hammering EnqueueWait through the close.
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					err := q.EnqueueWait(context.Background(), func(any) { handled.Add(1) }, WithKey(Key(w*100+i%7)))
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
		// Concurrent drainers.
		for d := 0; d < 2; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					q.Drain()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		q.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); p.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			t.Fatal("Drain/Close/EnqueueWait race wedged")
		}
		if handled.Load() != accepted.Load() {
			t.Fatalf("handled %d of %d accepted messages", handled.Load(), accepted.Load())
		}
		// After close+drain the queue must be verifiably empty.
		if q.Len() != 0 || q.InFlight() != 0 {
			t.Fatalf("residual state after drain: len=%d inflight=%d", q.Len(), q.InFlight())
		}
	}
}

// TestConcurrentDrainersAllReleased: many simultaneous Drain callers must
// all be released by one emptiness event.
func TestConcurrentDrainersAllReleased(t *testing.T) {
	q := New()
	release := make(chan struct{})
	if err := q.Enqueue(func(any) { <-release }, WithKey(1)); err != nil {
		t.Fatal(err)
	}
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry should dispatch")
	}
	go func() {
		m := e.Message()
		m.Handler(m.Data)
		q.Complete(e)
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); q.Drain() }()
	}
	time.Sleep(5 * time.Millisecond) // let drainers register
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not all Drain callers were released")
	}
}

// TestDrainNoLostWakeup races Drain's park against the events that must
// end it (docs/INVARIANTS.md § Wake protocol). Each caller admits one
// message to a served queue and Drains at once, so nearly every Drain
// starts on a busy queue and races its park against the completion that
// empties it. Close lands mid-stream and the callers carry on into the
// closed queue, whose refused ring admissions raise and back out a pending
// count another caller's Drain may have read (the other waker,
// enqueueIntake). A lost wake leaves a Drain parked on a queue that stays
// idle, and the round never finishes.
func TestDrainNoLostWakeup(t *testing.T) {
	for round := 0; round < 4; round++ {
		q := New(WithShards(1 << (round % 3)))
		p := Serve(context.Background(), q, 2)
		var handled, accepted atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, refused := 0, 0; refused < 100; i++ {
					if w == 0 && i == 300 {
						q.Close()
					}
					switch err := q.Enqueue(func(any) { handled.Add(1) }, WithKey(Key(w*64+i%5))); err {
					case nil:
						accepted.Add(1)
					case ErrClosed:
						refused++
					default:
						t.Errorf("Enqueue: %v", err)
						return
					}
					q.Drain()
				}
			}(w)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); p.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: a Drain is still parked (len=%d inflight=%d parks=%d)", round, q.Len(), q.InFlight(), q.idle.waits.Load())
		}
		if handled.Load() != accepted.Load() {
			t.Fatalf("round %d: handled %d of %d accepted messages", round, handled.Load(), accepted.Load())
		}
		if q.idle.waits.Load() == 0 {
			t.Fatalf("round %d: no Drain ever parked", round)
		}
	}
}
