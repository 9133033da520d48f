package pdq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolProcessesAll(t *testing.T) {
	q := New()
	var count atomic.Int64
	const n = 5000
	for i := 0; i < n; i++ {
		if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(i%31))); err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, 4)
	q.Close()
	p.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("handled %d, want %d", got, n)
	}
}

func TestPoolMutualExclusionPerKey(t *testing.T) {
	q := New()
	const keys = 8
	var active [keys]atomic.Int32
	var violations atomic.Int32
	var order [keys]struct {
		mu   sync.Mutex
		last int
	}
	const perKey = 300
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			k := k
			i := i
			err := q.Enqueue(func(any) {
				if active[k].Add(1) != 1 {
					violations.Add(1)
				}
				order[k].mu.Lock()
				if i != order[k].last {
					violations.Add(1) // FIFO-per-key violated
				}
				order[k].last = i + 1
				order[k].mu.Unlock()
				active[k].Add(-1)
			}, WithKey(Key(k)))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	p := Serve(context.Background(), q, 8)
	q.Close()
	p.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion/order violations", v)
	}
}

func TestPoolParallelismAcrossKeys(t *testing.T) {
	q := New()
	var cur, peak atomic.Int32
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	for k := 0; k < 4; k++ {
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
		}, WithKey(Key(k)))
		if err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, 4)
	wg.Wait() // all four handlers running simultaneously
	close(block)
	q.Close()
	p.Wait()
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency %d, want 4 (distinct keys must run in parallel)", peak.Load())
	}
}

func TestPoolSequentialIsolation(t *testing.T) {
	q := New()
	var running atomic.Int32
	var seqSawOthers atomic.Bool
	var before, after atomic.Int32
	var seqDone atomic.Bool
	for i := 0; i < 50; i++ {
		if err := q.Enqueue(func(any) {
			running.Add(1)
			before.Add(1)
			running.Add(-1)
		}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue(func(any) {
		if running.Load() != 0 {
			seqSawOthers.Store(true)
		}
		if before.Load() != 50 {
			seqSawOthers.Store(true) // earlier entries must all have completed
		}
		if after.Load() != 0 {
			seqSawOthers.Store(true) // later entries must not have started
		}
		seqDone.Store(true)
	}, Sequential()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := q.Enqueue(func(any) {
			if !seqDone.Load() {
				seqSawOthers.Store(true)
			}
			after.Add(1)
		}, WithKey(Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, 8)
	q.Close()
	p.Wait()
	if seqSawOthers.Load() {
		t.Fatal("sequential handler did not run in isolation at its queue position")
	}
	if after.Load() != 50 {
		t.Fatalf("after = %d, want 50", after.Load())
	}
}

func TestPoolContextCancel(t *testing.T) {
	q := New()
	ctx, cancel := context.WithCancel(context.Background())
	p := Serve(ctx, q, 2)
	cancel()
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("context cancellation did not stop workers")
	}
}

func TestPoolMinWorkers(t *testing.T) {
	q := New()
	p := Serve(context.Background(), q, 0)
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want clamp to 1", p.Workers())
	}
	q.Close()
	p.Wait()
}

func TestPoolWorkDuringOperation(t *testing.T) {
	// Enqueue from several producers while the pool runs; everything must
	// be handled exactly once.
	q := New()
	var count atomic.Int64
	p := Serve(context.Background(), q, 4)
	var wg sync.WaitGroup
	const producers, per = 4, 500
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(w*per+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	q.Close()
	p.Wait()
	if count.Load() != producers*per {
		t.Fatalf("handled %d, want %d", count.Load(), producers*per)
	}
}

func TestPoolWithBoundedQueueAndEnqueueWait(t *testing.T) {
	// End-to-end backpressure: a tiny bounded queue, slow-ish handlers,
	// and a producer that only uses EnqueueWait. Nothing may be lost.
	q := New(WithCapacity(4))
	var count atomic.Int64
	p := Serve(context.Background(), q, 2)
	const n = 500
	for i := 0; i < n; i++ {
		if err := q.EnqueueWait(context.Background(), func(any) { count.Add(1) }, WithKey(Key(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	p.Wait()
	if count.Load() != n {
		t.Fatalf("handled %d, want %d", count.Load(), n)
	}
}

// serveKinds are the two doors into the one worker loop: Serve over a
// queue (its mux of one) and ServeMux over a Mux holding that queue. Tests
// of the loop's lifecycle run over both from one table.
var serveKinds = []struct {
	name  string
	start func(n int, opts ...Option) (q *Queue, closeAll func(), g WorkerGroup)
}{
	{"Serve", func(n int, opts ...Option) (*Queue, func(), WorkerGroup) {
		q := New(opts...)
		return q, q.Close, Serve(context.Background(), q, n)
	}},
	{"ServeMux", func(n int, opts ...Option) (*Queue, func(), WorkerGroup) {
		m := NewMux()
		q, err := m.Queue("only", opts...)
		if err != nil {
			panic(err)
		}
		return q, m.Close, ServeMux(context.Background(), m, n)
	}},
}

// eventually polls cond between scheduler yields — no sleeping — and
// reports whether it came true within a bounded number of rounds.
func eventually(cond func() bool) bool {
	for i := 0; i < 1<<22; i++ {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// checkNoLeakedGoroutines fails unless the goroutine count is back to
// base (taken before the workers started) within eventually's bound.
func checkNoLeakedGoroutines(t *testing.T, base int) {
	t.Helper()
	if !eventually(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines, %d before the pool started: workers or their wake helpers leaked", runtime.NumGoroutine(), base)
	}
}

// TestPoolCloseWakesAllWorkers drives the bounded-wake termination
// cascade: shard wakeups wake only as many consumers as the event made
// entries dispatchable, so when a single serial chain drains, most of
// the pool stays parked and the final completion wakes just one worker.
// That worker must re-broadcast close+drain to the rest or Wait hangs
// with sleepers left behind (the regression this test pins).
func TestPoolCloseWakesAllWorkers(t *testing.T) {
	for _, k := range serveKinds {
		t.Run(k.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			// 8 workers, 1 key: at most one dispatches at a time, 7 park.
			q, closeAll, p := k.start(8, WithShards(4))
			var count atomic.Int64
			const n = 200
			for i := 0; i < n; i++ {
				if err := q.Enqueue(func(any) {
					time.Sleep(100 * time.Microsecond)
					count.Add(1)
				}, WithKey(Key(1))); err != nil {
					t.Fatal(err)
				}
			}
			closeAll()
			done := make(chan struct{})
			go func() { p.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("pool did not drain: handled %d of %d, %d pending, %d in flight",
					count.Load(), n, q.Len(), q.InFlight())
			}
			if got := count.Load(); got != n {
				t.Fatalf("handled %d, want %d", got, n)
			}
			checkNoLeakedGoroutines(t, base)
		})
	}
}

// TestRunNextChainHandoff consumes a deep single-key backlog through
// RunNext: completions must hand the successor straight to the caller
// (no re-entry into the blocking dequeue), preserve per-key FIFO order,
// and count each handoff in Stats.
func TestRunNextChainHandoff(t *testing.T) {
	q := New(WithShards(2))
	const n = 500
	var order []int
	for i := 0; i < n; i++ {
		i := i
		if err := q.Enqueue(func(any) { order = append(order, i) }, WithKey(Key(7))); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("no entry dispatchable")
	}
	runs := 0
	for {
		runs++
		next, ok, err := q.RunNext(e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		e = next
	}
	if runs != n {
		t.Fatalf("ran %d entries through handoff, want %d", runs, n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: handoff broke per-key FIFO", i, v)
		}
	}
	if h := q.Stats().ChainHandoffs; h != n-1 {
		t.Fatalf("ChainHandoffs = %d, want %d", h, n-1)
	}
}

// TestCompleteNextNoHandoffWhenDrained checks the handoff miss path:
// completing the only pending entry returns ok=false and the queue is
// fully idle afterwards.
func TestCompleteNextNoHandoffWhenDrained(t *testing.T) {
	q := New()
	if err := q.Enqueue(func(any) {}, WithKey(Key(3))); err != nil {
		t.Fatal(err)
	}
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("no entry dispatchable")
	}
	next, ok := q.CompleteNext(e)
	if ok || next != nil {
		t.Fatalf("CompleteNext on drained queue returned %v, %v", next, ok)
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not idle: %d pending, %d in flight", q.Len(), q.InFlight())
	}
}
