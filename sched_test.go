package pdq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spinFor burns wall-clock time without sleeping, so handler cost is
// scheduler-independent.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestPriorityOrder verifies that a scan serves higher bands first when
// key sets are disjoint.
func TestPriorityOrder(t *testing.T) {
	q := New()
	nop := func(any) {}
	_ = q.Enqueue(nop, WithKey(1))
	_ = q.Enqueue(nop, WithKey(2), WithPriority(2))
	_ = q.Enqueue(nop, WithKey(3), WithPriority(3))
	_ = q.Enqueue(nop, WithKey(4), WithPriority(1))
	want := []int{3, 2, 1, 0}
	for i, w := range want {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("dispatch %d: nothing dispatchable", i)
		}
		if got := e.Message().Priority; got != w {
			t.Fatalf("dispatch %d: band %d, want %d", i, got, w)
		}
		q.Complete(e)
	}
}

// TestPriorityClamp verifies WithPriority clamping at admission.
func TestPriorityClamp(t *testing.T) {
	q := New()
	_ = q.Enqueue(func(any) {}, WithKey(1), WithPriority(99))
	_ = q.Enqueue(func(any) {}, WithKey(2), WithPriority(-5))
	e1, _ := q.TryDequeue()
	if got := e1.Message().Priority; got != NumPriorities-1 {
		t.Fatalf("clamped high band = %d, want %d", got, NumPriorities-1)
	}
	q.Complete(e1)
	e2, _ := q.TryDequeue()
	if got := e2.Message().Priority; got != 0 {
		t.Fatalf("clamped low band = %d, want 0", got)
	}
	q.Complete(e2)
}

// TestPriorityKeyFIFOAcrossBands pins the documented cross-band
// inversion: a high-band message enqueued after a low-band message
// sharing a key waits for it — priority reorders only disjoint key sets.
func TestPriorityKeyFIFOAcrossBands(t *testing.T) {
	q := New()
	nop := func(any) {}
	_ = q.Enqueue(nop, WithKey(7), WithData("low"))
	_ = q.Enqueue(nop, WithKey(7), WithPriority(3), WithData("high"))
	e, ok := q.TryDequeue()
	if !ok || e.Message().Data != "low" {
		t.Fatalf("first dispatch = %v, want the earlier low-band entry", e.Message().Data)
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("high-band entry overtook an in-flight same-key predecessor")
	}
	q.Complete(e)
	e2, ok := q.TryDequeue()
	if !ok || e2.Message().Data != "high" {
		t.Fatal("high-band entry did not dispatch after its predecessor completed")
	}
	q.Complete(e2)
}

// TestBatchBandOrder verifies that a batch harvest lists higher bands
// before lower ones.
func TestBatchBandOrder(t *testing.T) {
	q := New()
	nop := func(any) {}
	for i := 0; i < 4; i++ {
		_ = q.Enqueue(nop, WithKey(Key(i)))
	}
	for i := 0; i < 4; i++ {
		_ = q.Enqueue(nop, WithKey(Key(100+i)), WithPriority(3))
	}
	es, ok := q.TryDequeueBatch(8)
	if !ok || len(es) != 8 {
		t.Fatalf("harvested %d entries, want 8", len(es))
	}
	for i, e := range es {
		want := 3
		if i >= 4 {
			want = 0
		}
		if got := e.Message().Priority; got != want {
			t.Fatalf("batch[%d] band %d, want %d", i, got, want)
		}
	}
	for _, e := range es {
		q.Complete(e)
	}
}

// TestPriorityAntiStarvation ports the mux trickle-vs-flood fairness
// pattern to priority bands: a low-band trickle under a top-band flood
// must progress at the anti-starvation cadence — every trickle entry
// completes within a bounded number of flood completions, far before
// the flood drains.
func TestPriorityAntiStarvation(t *testing.T) {
	q := New() // one shard: the credit cadence is deterministic with one worker
	const floods = 3000
	const trickles = 20
	var floodDone atomic.Int64
	var mu sync.Mutex
	var trickleAt []int64 // flood completions when each trickle entry ran
	for i := 0; i < trickles; i++ {
		_ = q.Enqueue(func(any) {
			mu.Lock()
			trickleAt = append(trickleAt, floodDone.Load())
			mu.Unlock()
		}, WithKey(Key(10_000+i)))
	}
	for i := 0; i < floods; i++ {
		_ = q.Enqueue(func(any) { floodDone.Add(1) }, WithKey(Key(i%64)), WithPriority(3))
	}
	p := Serve(context.Background(), q, 1)
	q.Close()
	p.Wait()
	if len(trickleAt) != trickles {
		t.Fatalf("ran %d trickle entries, want %d", len(trickleAt), trickles)
	}
	// Band 0's starvation limit is creditLimit(0) high-band dispatches;
	// allow generous slack over that cadence.
	bound := int64(3 * creditLimit(0))
	prev := int64(0)
	for i, at := range trickleAt {
		if at-prev > bound {
			t.Fatalf("trickle %d starved: %d flood completions since the previous one (bound %d)", i, at-prev, bound)
		}
		prev = at
	}
	if last := trickleAt[trickles-1]; last > floods/2 {
		t.Fatalf("trickle finished only after %d of %d flood completions", last, floods)
	}
}

// TestDelayedDelivery verifies that a delayed entry dispatches no
// earlier than its maturity, via a timed consumer park rather than
// polling (TimerWakeups).
func TestDelayedDelivery(t *testing.T) {
	q := New()
	p := Serve(context.Background(), q, 2)
	time.Sleep(10 * time.Millisecond) // let the workers park
	const delay = 40 * time.Millisecond
	start := time.Now()
	done := make(chan struct{})
	var ran time.Duration
	if err := q.Enqueue(func(any) {
		ran = time.Since(start)
		close(done)
	}, WithKey(1), WithDelay(delay)); err != nil {
		t.Fatal(err)
	}
	<-done
	if ran < delay {
		t.Fatalf("handler ran %v after enqueue, before the %v delay", ran, delay)
	}
	q.Close()
	p.Wait()
	s := q.Stats()
	if s.Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", s.Delayed)
	}
	if s.TimerWakeups == 0 {
		t.Fatal("no timed park fired: delayed delivery polled or ran early")
	}
}

// TestDelayedHoldsKeyOrder pins the delayed-claims rule: a delayed entry
// keeps its per-key queue position, so a later same-key entry waits for
// it to mature and dispatch first.
func TestDelayedHoldsKeyOrder(t *testing.T) {
	q := New()
	nop := func(any) {}
	_ = q.Enqueue(nop, WithKey(7), WithDelay(20*time.Millisecond), WithData("delayed"))
	_ = q.Enqueue(nop, WithKey(7), WithData("eager"))
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("same-key successor overtook an immature delayed entry")
	}
	time.Sleep(25 * time.Millisecond)
	e, ok := q.TryDequeue()
	if !ok || e.Message().Data != "delayed" {
		t.Fatal("matured delayed entry did not dispatch first")
	}
	q.Complete(e)
	e2, ok := q.TryDequeue()
	if !ok || e2.Message().Data != "eager" {
		t.Fatal("successor did not dispatch after the delayed entry completed")
	}
	q.Complete(e2)
}

// TestExpiredNeverDispatches verifies the deadline contract: an expired
// entry's handler never runs, its message reaches the dead-letter hook
// exactly once with ErrExpired, and the queue is left clean.
func TestExpiredNeverDispatches(t *testing.T) {
	var deadMu sync.Mutex
	var dead []error
	q := New(WithDeadLetter(func(m Message, err error) {
		deadMu.Lock()
		dead = append(dead, err)
		deadMu.Unlock()
	}))
	ran := false
	_ = q.Enqueue(func(any) { ran = true }, WithKey(1), WithTTL(-time.Nanosecond))
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("expired entry dispatched")
	}
	if ran {
		t.Fatal("expired entry's handler ran")
	}
	if len(dead) != 1 || !errors.Is(dead[0], ErrExpired) {
		t.Fatalf("dead-letter calls = %v, want exactly one ErrExpired", dead)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after expiry, want 0", q.Len())
	}
	q.Drain() // must not block: the expired entry is fully resolved
	s := q.Stats()
	if s.Expired != 1 || s.DeadLettered != 1 {
		t.Fatalf("expired=%d deadLettered=%d, want 1/1", s.Expired, s.DeadLettered)
	}
}

// TestExpiryUnblocksSameKey verifies that expiring an entry frees its
// claims mid-queue, so a later same-key entry dispatches in its place.
func TestExpiryUnblocksSameKey(t *testing.T) {
	var dead []Message
	q := New(WithDeadLetter(func(m Message, err error) { dead = append(dead, m) }))
	nop := func(any) {}
	_ = q.Enqueue(nop, WithKey(1), WithDeadline(time.Now().Add(-time.Second)), WithData("stale"))
	_ = q.Enqueue(nop, WithKey(1), WithData("fresh"))
	e, ok := q.TryDequeue()
	if !ok || e.Message().Data != "fresh" {
		t.Fatal("successor did not dispatch past the expired same-key entry")
	}
	q.Complete(e)
	if len(dead) != 1 || dead[0].Data != "stale" {
		t.Fatalf("dead-letter got %v, want the stale message", dead)
	}
}

// TestDrainWaitsForDelayed pins the documented drain rule: Drain waits
// for delayed entries to mature and dispatch; it never flushes them.
func TestDrainWaitsForDelayed(t *testing.T) {
	q := New()
	p := Serve(context.Background(), q, 1)
	const delay = 30 * time.Millisecond
	start := time.Now()
	var ran atomic.Bool
	_ = q.Enqueue(func(any) { ran.Store(true) }, WithKey(1), WithDelay(delay))
	q.Drain()
	if el := time.Since(start); el < delay {
		t.Fatalf("Drain returned after %v, before the %v delay", el, delay)
	}
	if !ran.Load() {
		t.Fatal("Drain returned before the delayed handler ran")
	}
	q.Close()
	p.Wait()
}

// TestCloseDispatchesDelayed verifies Close's contract extends to
// delayed entries: admitted work still dispatches, at maturity.
func TestCloseDispatchesDelayed(t *testing.T) {
	q := New()
	p := Serve(context.Background(), q, 1)
	const delay = 30 * time.Millisecond
	start := time.Now()
	var ran atomic.Bool
	_ = q.Enqueue(func(any) { ran.Store(true) }, WithKey(1), WithDelay(delay))
	q.Close()
	p.Wait()
	if !ran.Load() {
		t.Fatal("delayed entry lost at Close")
	}
	if el := time.Since(start); el < delay {
		t.Fatalf("delayed entry ran %v after enqueue, before its %v delay", el, delay)
	}
}

// TestDelayedGatesBarrier verifies that a Sequential barrier enqueued
// after a delayed entry waits for it (the barrier is a fixed point in
// queue order; the delayed entry holds the earlier position).
func TestDelayedGatesBarrier(t *testing.T) {
	q := New()
	var mu sync.Mutex
	var order []string
	record := func(tag string) func(any) {
		return func(any) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	_ = q.Enqueue(record("delayed"), WithKey(1), WithDelay(25*time.Millisecond))
	_ = q.Enqueue(record("barrier"), Sequential())
	p := Serve(context.Background(), q, 2)
	q.Close()
	p.Wait()
	if len(order) != 2 || order[0] != "delayed" || order[1] != "barrier" {
		t.Fatalf("execution order %v, want [delayed barrier]", order)
	}
}

// TestSequentialRejectsScheduling verifies that barriers cannot carry
// priority, delay, or deadline options.
func TestSequentialRejectsScheduling(t *testing.T) {
	q := New()
	nop := func(any) {}
	for _, opt := range []EnqueueOption{
		WithPriority(1),
		WithDelay(time.Millisecond),
		WithTTL(time.Second),
	} {
		if err := q.Enqueue(nop, Sequential(), opt); !errors.Is(err, errSequentialSched) {
			t.Fatalf("Sequential + scheduling option: err = %v, want errSequentialSched", err)
		}
	}
}

// TestRetryKeepsDeadline verifies that the TTL budget spans retries: a
// released entry re-admitted past its deadline expires with ErrExpired
// instead of dispatching again.
func TestRetryKeepsDeadline(t *testing.T) {
	var deadMu sync.Mutex
	var dead []error
	q := New(WithRetry(3), WithDeadLetter(func(m Message, err error) {
		deadMu.Lock()
		dead = append(dead, err)
		deadMu.Unlock()
	}))
	var runs atomic.Int32
	_ = q.Enqueue(func(any) {
		runs.Add(1)
		spinFor(30 * time.Millisecond) // outlive the deadline, then fail
		panic("transient")
	}, WithKey(1), WithTTL(20*time.Millisecond))
	p := Serve(context.Background(), q, 1)
	q.Close()
	p.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1 (retry should have expired)", got)
	}
	deadMu.Lock()
	defer deadMu.Unlock()
	if len(dead) != 1 || !errors.Is(dead[0], ErrExpired) {
		t.Fatalf("dead-letter calls = %v, want exactly one ErrExpired", dead)
	}
}

// TestCoalesceStopsAtExpired verifies the coalesce interaction: an
// expired run-mate is never merged into a dispatching invocation — it
// expires to the dead-letter hook — while the rest of the run proceeds.
func TestCoalesceStopsAtExpired(t *testing.T) {
	var dead []Message
	q := New(WithCoalesce(0), WithDeadLetter(func(m Message, err error) { dead = append(dead, m) }))
	var mu sync.Mutex
	var invocations [][]any
	bh := func(datas []any) {
		mu.Lock()
		invocations = append(invocations, datas)
		mu.Unlock()
	}
	_ = q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithData(1))
	_ = q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithData(2), WithTTL(-time.Second))
	_ = q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithData(3))
	es, ok := q.TryDequeueBatch(8)
	if !ok {
		t.Fatal("nothing harvested")
	}
	if err := q.RunBatch(es); err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0].Data != 2 {
		t.Fatalf("dead-letter got %v, want the expired payload 2", dead)
	}
	var flat []any
	for _, inv := range invocations {
		flat = append(flat, inv...)
	}
	if len(flat) != 2 || flat[0] != 1 || flat[1] != 3 {
		t.Fatalf("handled payloads %v, want [1 3]", flat)
	}
}

// TestCoalesceMinDeadline verifies that merging tightens the
// representative's deadline to the run's minimum.
func TestCoalesceMinDeadline(t *testing.T) {
	q := New(WithCoalesce(0))
	bh := func(datas []any) {}
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(time.Minute)
	_ = q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithDeadline(far))
	_ = q.Enqueue(nil, BatchHandler(bh), WithKey(1), WithDeadline(near))
	es, ok := q.TryDequeueBatch(8)
	if !ok || len(es) != 1 || es[0].Size() != 2 {
		t.Fatalf("expected one coalesced entry of 2 messages, got %d entries", len(es))
	}
	if es[0].deadline != toNanos(near) {
		t.Fatalf("merged deadline = %d, want the run minimum %d", es[0].deadline, toNanos(near))
	}
	q.Complete(es[0])
}

// TestMuxDelayedDelivery verifies the timed wake of workers serving a
// mux: a delayed entry on a member queue dispatches at maturity even
// though every worker is parked, and the member's Stats count those parks
// and the maturity timer that ended one.
func TestMuxDelayedDelivery(t *testing.T) {
	m := NewMux()
	q, err := m.Queue("t")
	if err != nil {
		t.Fatal(err)
	}
	p := ServeMux(context.Background(), m, 2)
	time.Sleep(10 * time.Millisecond) // let the workers park
	const delay = 30 * time.Millisecond
	start := time.Now()
	done := make(chan struct{})
	var ran time.Duration
	_ = q.Enqueue(func(any) {
		ran = time.Since(start)
		close(done)
	}, WithKey(1), WithDelay(delay))
	<-done
	if ran < delay {
		t.Fatalf("mux delivered after %v, before the %v delay", ran, delay)
	}
	m.Close()
	p.Wait()
	if s := q.Stats(); s.Waits == 0 || s.TimerWakeups == 0 {
		t.Fatalf("mux workers' parks went uncounted: waits=%d timer_wakeups=%d", s.Waits, s.TimerWakeups)
	}
}

// TestSchedulingComposition is the acceptance test for the scheduling
// subsystem: all three capabilities composing in one queue, under the
// batched worker path, with one shard and with default sharding.
//
//   - Delayed high-priority entries preempt the mature low-priority
//     backlog at maturity (each high handler observes unfinished low
//     entries, and never runs before its maturity instant).
//   - An expired entry reaches the dead-letter hook with ErrExpired and
//     never its handler — including one queued mid-stream behind live
//     same-key traffic.
//   - WithWorkerBatch harvests respect band order (the high entries
//     complete long before the flood drains).
func TestSchedulingComposition(t *testing.T) {
	for _, shards := range []int{1, 0} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			var deadMu sync.Mutex
			var dead []error
			q := New(WithShards(shards), WithDeadLetter(func(m Message, err error) {
				deadMu.Lock()
				dead = append(dead, err)
				deadMu.Unlock()
			}))
			const (
				lows     = 6000
				highs    = 8
				expireds = 8
			)
			var lowDone, highDone atomic.Int64
			var highEarly, highSawNoBacklog, expiredRan atomic.Int32
			for i := 0; i < lows; i++ {
				if err := q.Enqueue(func(any) {
					spinFor(20 * time.Microsecond)
					lowDone.Add(1)
				}, WithKey(Key(i%128))); err != nil {
					t.Fatal(err)
				}
			}
			// Anchored per entry immediately before its own Enqueue, so
			// each high entry is genuinely immature at admission no
			// matter how long the other admissions take (a ring-full
			// enqueue drains the intake backlog inline, which under the
			// race detector can eat a shared margin). Workers only start
			// after every enqueue, so even the last maturity still lands
			// well inside the low flood's drain.
			for i := 0; i < highs; i++ {
				notBefore := time.Now().Add(20 * time.Millisecond)
				if err := q.Enqueue(func(any) {
					if time.Now().Before(notBefore) {
						highEarly.Add(1)
					}
					if lowDone.Load() >= lows {
						highSawNoBacklog.Add(1)
					}
					highDone.Add(1)
				}, WithKey(Key(10_000+i)), WithPriority(NumPriorities-1),
					WithNotBefore(notBefore)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < expireds; i++ {
				k := Key(20_000 + i)
				if i == 0 {
					k = Key(5) // queued behind live same-key flood traffic
				}
				if err := q.Enqueue(func(any) { expiredRan.Add(1) },
					WithKey(k), WithPriority(2), WithTTL(-time.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			p := Serve(context.Background(), q, 4, WithWorkerBatch(4))
			q.Close()
			p.Wait()

			if got := lowDone.Load(); got != lows {
				t.Fatalf("low completions = %d, want %d", got, lows)
			}
			if got := highDone.Load(); got != highs {
				t.Fatalf("high completions = %d, want %d", got, highs)
			}
			if n := highEarly.Load(); n != 0 {
				t.Fatalf("%d high entries dispatched before maturity", n)
			}
			if n := highSawNoBacklog.Load(); n != 0 {
				t.Fatalf("%d high entries ran only after the low backlog drained (no preemption)", n)
			}
			if n := expiredRan.Load(); n != 0 {
				t.Fatalf("%d expired entries ran their handler", n)
			}
			deadMu.Lock()
			if len(dead) != expireds {
				t.Fatalf("dead-letter calls = %d, want %d", len(dead), expireds)
			}
			for _, err := range dead {
				if !errors.Is(err, ErrExpired) {
					t.Fatalf("dead-letter error = %v, want ErrExpired", err)
				}
			}
			deadMu.Unlock()
			s := q.Stats()
			if s.Expired != expireds || s.Delayed != highs {
				t.Fatalf("expired=%d delayed=%d, want %d/%d: %s", s.Expired, s.Delayed, expireds, highs, s)
			}
			if s.PriorityDispatched[0] != lows || s.PriorityDispatched[NumPriorities-1] != highs {
				t.Fatalf("priority_dispatched = %v, want %d low / %d high", s.PriorityDispatched, lows, highs)
			}
		})
	}
}

// TestPriorityWindowNoDeadlock regresses a scheduler deadlock: with a
// deep backlog round-robined across bands on shared keys, every entry a
// higher band's scan examines is order-conflicted (its same-key
// predecessors sit in lower bands), so a window budget shared across
// bands exhausted before the scan reached the band holding the oldest —
// guaranteed dispatchable — entry, and every consumer parked forever.
// The window is per band precisely so this scan always finds it.
func TestPriorityWindowNoDeadlock(t *testing.T) {
	q := New()
	const msgs = 20000
	var done atomic.Int64
	for i := 0; i < msgs; i++ {
		_ = q.Enqueue(func(any) { done.Add(1) },
			WithKey(Key(i%64)), WithPriority(i%NumPriorities))
	}
	p := Serve(context.Background(), q, 4, WithWorkerBatch(8))
	q.Close()
	p.Wait() // hung here before the per-band window budget
	if got := done.Load(); got != msgs {
		t.Fatalf("ran %d of %d handlers", got, msgs)
	}
}
