// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the design-choice ablations called out in DESIGN.md.
// Each benchmark runs the corresponding experiment at a reduced workload
// scale (the shapes are scale-stable; use cmd/pdqsim -scale 1.0 for
// full-size runs) and reports headline values as custom benchmark metrics
// so `go test -bench` output documents the reproduction.
package pdq_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pdq"
	"pdq/internal/experiments"
	"pdq/internal/lockq"
	"pdq/internal/multiq"
	"pdq/internal/sim"
)

// benchOpts keeps benchmark iterations fast and deterministic.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.12, Seed: 1999}
}

// BenchmarkTable1 regenerates the remote read miss latency breakdown
// (Table 1) and reports the three measured round-trip totals.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		t := rep.Rows[len(rep.Rows)-1]
		b.ReportMetric(t.Cells[0].Value, "scoma-cycles")
		b.ReportMetric(t.Cells[1].Value, "hurricane-cycles")
		b.ReportMetric(t.Cells[2].Value, "hurricane1-cycles")
	}
}

// BenchmarkTable2 regenerates S-COMA application speedups (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			b.ReportMetric(row.Cells[0].Value, row.Label+"-speedup")
		}
	}
}

// BenchmarkFig7Hurricane regenerates Figure 7 (top): Hurricane 1/2/4pp
// normalized to S-COMA on 8 8-way SMPs.
func BenchmarkFig7Hurricane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig7Hurricane(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.GeoMean(2), "geomean-4pp")
	}
}

// BenchmarkFig7Hurricane1 regenerates Figure 7 (bottom): Hurricane-1
// 1/2/4pp and Mult normalized to S-COMA.
func BenchmarkFig7Hurricane1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig7Hurricane1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.GeoMean(2), "geomean-4pp")
		b.ReportMetric(rep.GeoMean(3), "geomean-mult")
	}
}

// BenchmarkFig8 regenerates Figure 8: clustering degree, Hurricane.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		thin, fat, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(thin.GeoMean(2), "16x4way-4pp")
		b.ReportMetric(fat.GeoMean(2), "4x16way-4pp")
	}
}

// BenchmarkFig9 regenerates Figure 9: clustering degree, Hurricane-1+Mult.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		thin, fat, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(thin.GeoMean(3), "16x4way-mult")
		b.ReportMetric(fat.GeoMean(3), "4x16way-mult")
	}
}

// BenchmarkFig10 regenerates Figure 10: block size, Hurricane.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, big, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(small.GeoMean(2), "32B-4pp")
		b.ReportMetric(big.GeoMean(2), "128B-4pp")
	}
}

// BenchmarkFig11 regenerates Figure 11: block size, Hurricane-1+Mult.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, big, err := experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(small.GeoMean(3), "32B-mult")
		b.ReportMetric(big.GeoMean(3), "128B-mult")
	}
}

// BenchmarkHeadline regenerates the abstract's 2.6× result: Hurricane-1
// Mult over a single dedicated protocol processor on 4 16-way SMPs.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Headline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Rows[len(rep.Rows)-1].Cells[0].Value, "mult-over-1pp")
	}
}

// BenchmarkAblationForwarding regenerates the recall-vs-forwarding
// protocol-variant comparison (DESIGN.md extension ablation).
func BenchmarkAblationForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationForwarding(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := rep.CellFor("fft", "exec speedup"); ok {
			b.ReportMetric(c.Value, "fft-exec-speedup")
		}
	}
}

// BenchmarkAblationCapacity regenerates the finite-remote-cache pressure
// sweep (DESIGN.md extension ablation).
func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationCapacity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := rep.Rows[len(rep.Rows)-1]
		b.ReportMetric(last.Cells[2].Value, "tightest-slowdown")
	}
}

// --- Ablation A: dispatch strategies on an identical hot-key workload ---

const (
	ablMessages = 50_000
	ablKeys     = 32
	ablSkew     = 1.1
	ablWorkers  = 8
)

func ablationKeys() []uint64 {
	rng := sim.NewRand(7)
	ks := make([]uint64, ablMessages)
	for i := range ks {
		ks[i] = uint64(rng.Zipf(ablKeys, ablSkew))
	}
	return ks
}

// busyWork simulates a fine-grain handler body (~a few hundred ns).
func busyWork() {
	x := 0
	for i := 0; i < 400; i++ {
		x += i
	}
	_ = x
}

// BenchmarkDispatchStrategies compares in-queue synchronization (PDQ)
// against post-dispatch spin locks and OAM-style abort/retry — the
// paper's Section 3 argument (Ablation A).
func BenchmarkDispatchStrategies(b *testing.B) {
	ks := ablationKeys()
	b.Run("pdq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := pdq.New()
			p := pdq.Serve(context.Background(), q, ablWorkers)
			for _, k := range ks {
				_ = q.Enqueue(func(any) { busyWork() }, pdq.WithKey(pdq.Key(k)))
			}
			q.Close()
			p.Wait()
		}
		b.ReportMetric(float64(ablMessages), "msgs/op")
	})
	b.Run("spinlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := lockq.New(lockq.SpinLock)
			done := make(chan struct{})
			go func() { q.Serve(ablWorkers, 0); close(done) }()
			for _, k := range ks {
				_ = q.Enqueue(k, func(any) { busyWork() }, nil)
			}
			q.Close()
			<-done
		}
		b.ReportMetric(float64(ablMessages), "msgs/op")
	})
	b.Run("oam", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := lockq.New(lockq.Optimistic)
			done := make(chan struct{})
			go func() { q.Serve(ablWorkers, 4); close(done) }()
			for _, k := range ks {
				_ = q.Enqueue(k, func(any) { busyWork() }, nil)
			}
			q.Close()
			<-done
		}
		b.ReportMetric(float64(ablMessages), "msgs/op")
	})
}

// BenchmarkSingleVsPartitioned compares the single PDQ against statically
// partitioned queues under a skewed key distribution — the Section 1
// load-imbalance argument (Ablation B).
func BenchmarkSingleVsPartitioned(b *testing.B) {
	ks := ablationKeys()
	b.Run("pdq-single-queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := pdq.New()
			p := pdq.Serve(context.Background(), q, ablWorkers)
			for _, k := range ks {
				_ = q.Enqueue(func(any) { busyWork() }, pdq.WithKey(pdq.Key(k)))
			}
			q.Close()
			p.Wait()
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		var imb float64
		for i := 0; i < b.N; i++ {
			q := multiq.New(ablWorkers)
			done := make(chan struct{})
			go func() { q.Serve(); close(done) }()
			for _, k := range ks {
				_ = q.Enqueue(k, func(any) { busyWork() }, nil)
			}
			q.Close()
			<-done
			imb = q.Stats().Imbalance()
		}
		b.ReportMetric(imb, "imbalance-max/mean")
	})
}

// BenchmarkHarvestBlockedPrefix is the dispatch rung of the L0 ladder:
// one enqueue → TryDequeue → Complete cycle on a free key while depth
// older entries sit blocked behind one in-flight key. Dispatch pops a
// ready list, which the blocked prefix never enters, so ns/op must be
// flat across depths (under the windowed scan it grew linearly: every
// dequeue walked the prefix).
func BenchmarkHarvestBlockedPrefix(b *testing.B) {
	nop := func(any) {}
	for _, depth := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			q := pdq.New()
			_ = q.Enqueue(nop, pdq.WithKey(1))
			held, _ := q.TryDequeue()
			for i := 0; i < depth; i++ {
				_ = q.Enqueue(nop, pdq.WithKey(1))
			}
			free := pdq.Message{Handler: nop, Keys: []pdq.Key{2}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = q.EnqueueMessage(free)
				e, ok := q.TryDequeue()
				if !ok {
					b.Fatal("free-key entry not dispatchable")
				}
				q.Complete(e)
			}
			b.StopTimer()
			q.Complete(held)
			for i := 0; i < depth; i++ {
				e, _ := q.TryDequeue()
				q.Complete(e)
			}
		})
	}
}

// BenchmarkHarvestReadyWidth is the other axis of the same rung: the
// ready set is width entries wide (two messages on each of width keys, so
// half the backlog is ready and every completion makes one more entry
// ready), drained by a TryDequeue → Complete loop; ns/msg is per message,
// enqueue included. A successor is the newest entry on the shard when the
// keys' second messages were enqueued after all the first ones and the
// oldest when each followed its own first, so neither end of the ready
// order is the cheap place to look: the cost of making an entry ready
// must not grow with how many already are (logarithmically at most).
func BenchmarkHarvestReadyWidth(b *testing.B) {
	nop := func(any) {}
	for _, succ := range []string{"newest", "oldest"} {
		for _, width := range []int{64, 1024, 16384, 65536} {
			b.Run(fmt.Sprintf("successor-%s/width-%d", succ, width), func(b *testing.B) {
				q := pdq.New(pdq.WithShards(1))
				b.ReportAllocs()
				done := 0 // whole laps: may overshoot b.N, so the rate is reported from it
				for done < b.N {
					for i := 0; i < 2*width; i++ {
						k := i % width // a lap of first messages, then a lap of second ones
						if succ == "oldest" {
							k = i / 2
						}
						_ = q.EnqueueMessage(pdq.Message{Handler: nop, Keys: []pdq.Key{pdq.Key(k)}})
					}
					for i := 0; i < 2*width; i++ {
						e, ok := q.TryDequeue()
						if !ok {
							b.Fatal("backlog not dispatchable")
						}
						q.Complete(e)
					}
					done += 2 * width
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/msg")
			})
		}
	}
}

// BenchmarkKeySetDispatch measures the key-set hot path: pairs of keys
// per message (the paper's resource groups), versus the same workload
// expressed as sequential full barriers — the only way to protect a
// multi-resource handler in the v1 single-key API.
func BenchmarkKeySetDispatch(b *testing.B) {
	ks := ablationKeys()
	b.Run("keyset-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := pdq.New()
			p := pdq.Serve(context.Background(), q, ablWorkers)
			for j, k := range ks {
				k2 := ks[(j+1)%len(ks)]
				_ = q.Enqueue(func(any) { busyWork() },
					pdq.WithKeys(pdq.Key(k), pdq.Key(ablKeys+k2)))
			}
			q.Close()
			p.Wait()
		}
		b.ReportMetric(float64(ablMessages), "msgs/op")
	})
	b.Run("sequential-barriers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := pdq.New()
			p := pdq.Serve(context.Background(), q, ablWorkers)
			for range ks {
				_ = q.Enqueue(func(any) { busyWork() }, pdq.Sequential())
			}
			q.Close()
			p.Wait()
		}
		b.ReportMetric(float64(ablMessages), "msgs/op")
	})
}

// BenchmarkDisjointKeys measures dispatcher-core scalability on the
// workload the sharded refactor targets. All key sets are disjoint:
// blockedStreams resources have a handler in flight and a successor
// message waiting (the paper's slow-handler scenario — a blocked stream
// must not stall dispatch on other resources), while every benchmark
// goroutine drives its own key through enqueue/dispatch/complete. The
// blocked stream heads wait on their keys' records and never enter a
// ready list, so no dispatch examines them; what the sharded core
// partitions is the locking. Run with -cpu 8 to reproduce the headline
// >= 2x sharded speedup.
func BenchmarkDisjointKeys(b *testing.B) {
	benchmarkWorkerBatch(b) // batch-1 / batch-16 pool-dispatch cases
	const blockedStreams = 48
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards-1", 1},
		{"shards-auto", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := pdq.New(pdq.WithShards(tc.shards))
			nop := func(any) {}
			// Dispatch and hold one handler per blocked stream, then park a
			// successor message behind each: 48 permanently blocked entries
			// in front of the search for the whole timed section.
			held := make([]*pdq.Entry, 0, blockedStreams)
			for i := 0; i < blockedStreams; i++ {
				_ = q.Enqueue(nop, pdq.WithKey(pdq.Key(1<<20+i)))
			}
			for i := 0; i < blockedStreams; i++ {
				e, ok := q.TryDequeue()
				if !ok {
					b.Fatal("setup dispatch failed")
				}
				held = append(held, e)
			}
			for i := 0; i < blockedStreams; i++ {
				_ = q.Enqueue(nop, pdq.WithKey(pdq.Key(1<<20+i)))
			}
			var nextKey atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := pdq.Key(nextKey.Add(1))
				for pb.Next() {
					_ = q.Enqueue(nop, pdq.WithKey(k))
					for {
						if e, ok := q.TryDequeue(); ok {
							q.Complete(e)
							break
						}
					}
				}
			})
			b.StopTimer()
			for _, e := range held {
				q.Complete(e)
			}
			q.Close()
			for {
				e, ok := q.TryDequeue()
				if !ok {
					break
				}
				q.Complete(e)
			}
		})
	}
}

// work200 simulates a ~200ns fine-grain handler body — the scale at
// which the paper's dispatch-cost argument bites: per-entry dispatch
// overhead is comparable to the handler itself, so batching it matters.
func work200() {
	x := 0
	for i := 0; i < 400; i++ {
		x += i
	}
	_ = x
}

// benchmarkWorkerBatch measures batched dispatch end to end on the
// disjoint-key workload: the queue is pre-filled with ~200ns handlers
// spread over 256 disjoint keys, then GOMAXPROCS pool workers drain it,
// dispatching per entry (batch-1: a shard-lock acquire and an eventcount
// interaction per message) versus in batches of 16 (WithWorkerBatch(16):
// harvest and completion both amortized). Registered as the batch-N
// cases of BenchmarkDisjointKeys; run with -cpu 8. The amortized locking
// pays off with real core-level contention on the shard locks — on a
// single hardware thread timeslicing its workers, uncontended locks are
// cheap and the two shapes converge.
func benchmarkWorkerBatch(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			q := pdq.New(pdq.WithShards(0))
			handler := func(any) { work200() }
			for i := 0; i < b.N; i++ {
				if err := q.Enqueue(handler, pdq.WithKey(pdq.Key(i&255))); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC() // keep pre-fill garbage out of the timed drain
			b.ResetTimer()
			p := pdq.Serve(context.Background(), q, runtime.GOMAXPROCS(0),
				pdq.WithWorkerBatch(batch))
			q.Close()
			p.Wait()
			b.StopTimer()
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds()/1e6, "Mmsg/s")
			}
			s := q.Stats()
			if s.Completed != uint64(b.N) {
				b.Fatalf("completed %d of %d", s.Completed, b.N)
			}
			if s.Batches > 0 {
				b.ReportMetric(float64(s.BatchEntries)/float64(s.Batches), "msgs/batch")
			}
		})
	}
}

// BenchmarkCoalesce measures WithCoalesce on bursty key traffic (runs of
// 16 messages per key — per-flow bursts): identical-key runs merge into
// one BatchHandler invocation, eliminating the per-message in-flight
// accounting and completion, versus the same batched workers without
// merging.
func BenchmarkCoalesce(b *testing.B) {
	for _, coalesce := range []bool{false, true} {
		name := "off"
		if coalesce {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := []pdq.Option{pdq.WithShards(0)}
			if coalesce {
				opts = append(opts, pdq.WithCoalesce(0))
			}
			q := pdq.New(opts...)
			bh := func(datas []any) {
				for range datas {
					work200()
				}
			}
			for i := 0; i < b.N; i++ {
				if err := q.Enqueue(nil, pdq.BatchHandler(bh),
					pdq.WithKey(pdq.Key((i/16)&255))); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC()
			b.ResetTimer()
			p := pdq.Serve(context.Background(), q, runtime.GOMAXPROCS(0),
				pdq.WithWorkerBatch(16))
			q.Close()
			p.Wait()
			b.StopTimer()
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds()/1e6, "Mmsg/s")
			}
			s := q.Stats()
			if s.Dispatched != s.Completed+s.Coalesced {
				b.Fatalf("lost messages: %s", s)
			}
			b.ReportMetric(float64(s.Coalesced), "coalesced")
		})
	}
}

// BenchmarkPriorityBands measures high-band dispatch latency under a
// low-band flood — the scheduling subsystem's reason to exist: acks must
// not wait behind bulk data. A producer goroutine keeps a standing
// backlog of low-band messages while the timed section enqueues probe
// messages and waits for each to execute; the probe-ns metric is the
// mean enqueue-to-handler latency. The probe-band-0 case shows the
// counterfactual (the probe queues behind the whole backlog), the
// probe-band-3 case the priority path (the probe overtakes it).
func BenchmarkPriorityBands(b *testing.B) {
	for _, band := range []int{0, pdq.NumPriorities - 1} {
		b.Run(fmt.Sprintf("probe-band-%d", band), func(b *testing.B) {
			q := pdq.New(pdq.WithShards(0))
			stop := make(chan struct{})
			var backlog atomic.Int64
			// 5µs of wall-clock work per flood message — an order of
			// magnitude slower than an enqueue, so the producer sustains
			// a standing backlog ahead of the workers.
			floodWork := func(any) {
				end := time.Now().Add(5 * time.Microsecond)
				for time.Now().Before(end) {
				}
				backlog.Add(-1)
			}
			const standing = 4096
			for i := 0; i < standing; i++ {
				backlog.Add(1)
				_ = q.Enqueue(floodWork, pdq.WithKey(pdq.Key(i&255)))
			}
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if backlog.Load() < standing {
						backlog.Add(1)
						_ = q.Enqueue(floodWork, pdq.WithKey(pdq.Key(i&255)))
					} else {
						runtime.Gosched()
					}
				}
			}()
			p := pdq.Serve(context.Background(), q, runtime.GOMAXPROCS(0))
			time.Sleep(2 * time.Millisecond) // let the pool engage the backlog
			done := make(chan struct{})
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				_ = q.Enqueue(func(any) {
					total += time.Since(start)
					done <- struct{}{}
				}, pdq.WithKey(pdq.Key(1<<20+i)), pdq.WithPriority(band))
				<-done
			}
			b.StopTimer()
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "probe-ns")
			close(stop)
			q.Close()
			p.Wait()
		})
	}
}

// BenchmarkPDQEnqueueDequeue measures the raw queue hot path with a
// single worker (no handler body), isolating dispatcher overhead.
func BenchmarkPDQEnqueueDequeue(b *testing.B) {
	q := pdq.New()
	nop := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Enqueue(nop, pdq.WithKey(pdq.Key(i&63)))
		e, ok := q.TryDequeue()
		if !ok {
			b.Fatal("dequeue failed")
		}
		q.Complete(e)
	}
}
