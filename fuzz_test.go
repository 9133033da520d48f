package pdq

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzKeySetDispatch feeds random operation scripts and shard counts to a
// served queue and asserts the two core PDQ invariants:
//
//  1. mutual exclusion — no two in-flight handlers share a key;
//  2. enqueue-order FIFO — handlers whose key sets overlap run in enqueue
//     order on every shared key.
//
// Each script byte encodes one enqueue: bytes divisible by 16 become
// Sequential barriers (isolation is asserted too), bytes ≡ 1 (mod 16)
// become NoSync entries, and everything else becomes a keyed entry with a
// 1–3 key set drawn from a small universe so conflicts are common. The
// shard selector sweeps 1, 2, 4, and 8 shards, so single-shard scans,
// cross-shard reservations, and the epoch barrier are all exercised. The
// ring selector sweeps the intake-ring size across 2 (tiny, so ring-full
// fallbacks are constant), 8, and the size New builds, so the lock-free
// publish, the lock path and the fallback protocol are all fuzzed.
func FuzzKeySetDispatch(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(0), uint8(1))
	f.Add([]byte{3, 16, 5, 1, 200, 32, 9}, uint8(1), uint8(2))
	f.Add([]byte{250, 17, 80, 5, 5, 64, 33, 2, 96, 128, 40}, uint8(2), uint8(3))
	f.Add([]byte{16, 16, 1, 1, 255, 254, 253, 48, 11, 23}, uint8(3), uint8(0))
	for i, script := range readySeedScripts() {
		f.Add(script, uint8(i), uint8(3*i+1)) // the model test's generator (ready_test.go)
	}
	f.Fuzz(func(t *testing.T, script []byte, rawShards, rawRing uint8) {
		if len(script) > 512 {
			script = script[:512]
		}
		const universe = 7
		shards := 1 << (rawShards % 4)
		ring := [...]int{2, 8, intakeRingSize}[rawRing%3]
		q := newQueue(ring, WithShards(shards))
		p := Serve(context.Background(), q, 6)

		var ran atomic.Int64
		var bad atomic.Int32
		var activeAll atomic.Int32
		var activeKey [universe]atomic.Int32
		var mu sync.Mutex
		lastPerKey := make(map[Key]int)

		for i, b := range script {
			i := i
			var err error
			switch {
			case b%16 == 0:
				err = q.Enqueue(func(any) {
					if activeAll.Add(1) != 1 {
						bad.Add(1) // barrier overlapped another handler
					}
					ran.Add(1)
					activeAll.Add(-1)
				}, Sequential())
			case b%16 == 1:
				err = q.Enqueue(func(any) {
					activeAll.Add(1)
					ran.Add(1)
					activeAll.Add(-1)
				}, NoSync())
			default:
				nk := 1 + int(b>>6)%3
				ks := make([]Key, nk)
				for j := range ks {
					ks[j] = Key((int(b) + j*5 + i*3) % universe)
				}
				err = q.Enqueue(func(any) {
					activeAll.Add(1)
					seen := make(map[Key]bool, len(ks))
					for _, k := range ks {
						if seen[k] {
							continue
						}
						seen[k] = true
						if activeKey[k].Add(1) != 1 {
							bad.Add(1) // two handlers sharing a key overlapped
						}
					}
					mu.Lock()
					for k := range seen {
						if lastPerKey[k] >= i+1 {
							bad.Add(1) // out of enqueue order on a shared key
						}
						lastPerKey[k] = i + 1
					}
					mu.Unlock()
					ran.Add(1)
					for k := range seen {
						activeKey[k].Add(-1)
					}
					activeAll.Add(-1)
				}, WithKeys(ks...))
			}
			if err != nil {
				t.Fatalf("enqueue op %d: %v", i, err)
			}
		}
		q.Close()
		p.Wait()
		if got := ran.Load(); got != int64(len(script)) {
			t.Fatalf("ran %d of %d handlers (shards=%d ring=%d)", got, len(script), shards, ring)
		}
		if v := bad.Load(); v != 0 {
			t.Fatalf("%d invariant violations (shards=%d ring=%d)", v, shards, ring)
		}
		if s := q.Stats(); s.Dispatched != s.Completed || s.Enqueued != uint64(len(script)) {
			t.Fatalf("inconsistent stats (shards=%d ring=%d): %s", shards, ring, s)
		}
	})
}

// FuzzBatchDispatch is FuzzKeySetDispatch's batched sibling: the same
// operation scripts run through WithWorkerBatch workers (batch sizes
// 1–16, so the DequeueBatch/RunBatch path is the only dispatch path) on
// 1–8 shards, with coalescing enabled, and the same invariants must
// survive batched harvesting:
//
//  1. mutual exclusion — no two concurrently executing handlers share a
//     key (in-batch same-key runs are legal only because one goroutine
//     executes them in order);
//  2. per-key enqueue-order FIFO — including the payload order inside a
//     coalesced Batch invocation;
//  3. sequential barriers run alone, bounding every batch.
//
// Script bytes: ≡0 (mod 16) Sequential, ≡1 (mod 16) a coalescable
// BatchHandler message on a single key, else a keyed entry with a 1–3
// key set from a small universe.
func FuzzBatchDispatch(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(1), uint8(7))
	f.Add([]byte{17, 17, 17, 33, 49}, uint8(0), uint8(15)) // coalescable runs
	f.Add([]byte{3, 16, 5, 1, 200, 32, 9}, uint8(2), uint8(3))
	f.Add([]byte{250, 17, 80, 5, 5, 64, 33, 2, 96, 128, 40}, uint8(3), uint8(11))
	for i, script := range readySeedScripts() {
		f.Add(script, uint8(i), uint8(3*i+1)) // the model test's generator (ready_test.go)
	}
	f.Fuzz(func(t *testing.T, script []byte, rawShards, rawBatch uint8) {
		if len(script) > 512 {
			script = script[:512]
		}
		const universe = 7
		shards := 1 << (rawShards % 4)
		batch := 1 + int(rawBatch)%16
		q := New(WithShards(shards), WithCoalesce(0))
		p := Serve(context.Background(), q, 4, WithWorkerBatch(batch))

		var ran atomic.Int64 // messages handled (each coalesced payload counts)
		var bad atomic.Int32
		var activeAll atomic.Int32
		var activeKey [universe]atomic.Int32
		var mu sync.Mutex
		lastPerKey := make(map[Key]int)

		for i, b := range script {
			i := i
			var err error
			switch {
			case b%16 == 0:
				err = q.Enqueue(func(any) {
					if activeAll.Add(1) != 1 {
						bad.Add(1) // barrier overlapped another handler
					}
					if ran.Load() != int64(i) {
						// Every op is one message, so at a barrier at
						// position i exactly i messages must have run:
						// fewer means the epoch did not drain, more means
						// a later message crossed the gate (e.g. by
						// riding a pre-barrier batch or coalesce run).
						bad.Add(1)
					}
					ran.Add(1)
					activeAll.Add(-1)
				}, Sequential())
			case b%16 == 1:
				k := Key(int(b>>4) % universe)
				err = q.Enqueue(nil, BatchHandler(func(datas []any) {
					activeAll.Add(1)
					if activeKey[k].Add(1) != 1 {
						bad.Add(1) // coalesced run overlapped a same-key handler
					}
					mu.Lock()
					for _, d := range datas {
						if lastPerKey[k] >= d.(int)+1 {
							bad.Add(1) // coalesced payloads out of enqueue order
						}
						lastPerKey[k] = d.(int) + 1
					}
					mu.Unlock()
					ran.Add(int64(len(datas)))
					activeKey[k].Add(-1)
					activeAll.Add(-1)
				}), WithKey(k), WithData(i))
			default:
				nk := 1 + int(b>>6)%3
				ks := make([]Key, nk)
				for j := range ks {
					ks[j] = Key((int(b) + j*5 + i*3) % universe)
				}
				err = q.Enqueue(func(any) {
					activeAll.Add(1)
					seen := make(map[Key]bool, len(ks))
					for _, k := range ks {
						if seen[k] {
							continue
						}
						seen[k] = true
						if activeKey[k].Add(1) != 1 {
							bad.Add(1) // two handlers sharing a key overlapped
						}
					}
					mu.Lock()
					for k := range seen {
						if lastPerKey[k] >= i+1 {
							bad.Add(1) // out of enqueue order on a shared key
						}
						lastPerKey[k] = i + 1
					}
					mu.Unlock()
					ran.Add(1)
					for k := range seen {
						activeKey[k].Add(-1)
					}
					activeAll.Add(-1)
				}, WithKeys(ks...))
			}
			if err != nil {
				t.Fatalf("enqueue op %d: %v", i, err)
			}
		}
		q.Close()
		p.Wait()
		if got := ran.Load(); got != int64(len(script)) {
			t.Fatalf("ran %d of %d messages (shards=%d batch=%d)", got, len(script), shards, batch)
		}
		if v := bad.Load(); v != 0 {
			t.Fatalf("%d invariant violations (shards=%d batch=%d)", v, shards, batch)
		}
		s := q.Stats()
		if s.Dispatched != s.Completed+s.Coalesced || s.Enqueued != uint64(len(script)) {
			t.Fatalf("inconsistent stats (shards=%d batch=%d): %s", shards, batch, s)
		}
	})
}

// FuzzSchedDispatch exercises the scheduling subsystem (sched.go) under
// fuzzed operation scripts: priority bands, delayed delivery, and
// deadlines layered over key-set synchronization, dispatched through
// batched workers on 1–8 shards. Invariants:
//
//  1. per-key enqueue-order FIFO among the messages that dispatch —
//     bands and delays never reorder a shared key (the documented
//     cross-band inversion), expired messages simply drop out of the
//     order — and no two concurrently executing handlers share a key;
//  2. no dispatch before maturity: a delayed handler never observes a
//     clock earlier than its WithDelay/WithNotBefore instant;
//  3. no dispatch after expiry: every message runs exactly once XOR
//     dead-letters exactly once with ErrExpired, and a message expired
//     at birth always dead-letters.
//
// Script bytes select per message: bits 6-7 the priority band, b%8==0 a
// small delay (1–3ms), b%8==1 expiry at birth (negative TTL), b%8==2 a
// racy ~500µs deadline (either outcome is legal; the exactly-once
// accounting must hold regardless), anything else an undecorated keyed
// message. Keys come from a small universe so conflicts are common.
func FuzzSchedDispatch(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(1), uint8(3))
	f.Add([]byte{0, 8, 16, 24, 1, 9, 17}, uint8(0), uint8(7)) // delays and births-expired
	f.Add([]byte{3, 64, 129, 200, 32, 9, 255, 2, 66, 130}, uint8(2), uint8(5))
	f.Add([]byte{250, 17, 80, 5, 5, 64, 33, 2, 96, 128, 40}, uint8(3), uint8(15))
	for i, script := range readySeedScripts() {
		f.Add(script, uint8(i), uint8(3*i+1)) // the model test's generator (ready_test.go)
	}
	f.Fuzz(func(t *testing.T, script []byte, rawShards, rawBatch uint8) {
		if len(script) > 256 {
			script = script[:256]
		}
		const universe = 7
		shards := 1 << (rawShards % 4)
		batch := 1 + int(rawBatch)%8
		var deadMu sync.Mutex
		deadCount := make(map[int]int) // op index -> dead-letter deliveries
		var wrongErr atomic.Int32
		q := New(WithShards(shards), WithDeadLetter(func(m Message, err error) {
			if !errors.Is(err, ErrExpired) {
				wrongErr.Add(1)
				return
			}
			deadMu.Lock()
			deadCount[m.Data.(int)]++
			deadMu.Unlock()
		}))
		p := Serve(context.Background(), q, 4, WithWorkerBatch(batch))

		var bad atomic.Int32
		var activeKey [universe]atomic.Int32
		var mu sync.Mutex
		ran := make(map[int]int)
		lastPerKey := make(map[Key]int)
		mustExpire := make(map[int]bool)
		notBefores := make([]time.Time, len(script))

		for i, b := range script {
			i := i
			nk := 1 + int(b>>3)%2
			ks := make([]Key, nk)
			for j := range ks {
				ks[j] = Key((int(b) + j*5 + i*3) % universe)
			}
			opts := []EnqueueOption{WithKeys(ks...), WithData(i),
				WithPriority(int(b >> 6))}
			switch b % 8 {
			case 0:
				d := time.Duration(1+int(b>>3)%3) * time.Millisecond
				notBefores[i] = time.Now().Add(d)
				opts = append(opts, WithNotBefore(notBefores[i]))
			case 1:
				mustExpire[i] = true
				opts = append(opts, WithTTL(-time.Nanosecond))
			case 2:
				// Racy deadline: dispatch and expiry are both legal.
				opts = append(opts, WithTTL(500*time.Microsecond))
			}
			err := q.Enqueue(func(any) {
				if nb := notBefores[i]; !nb.IsZero() && time.Now().Before(nb) {
					bad.Add(1) // dispatched before maturity
				}
				seen := make(map[Key]bool, len(ks))
				for _, k := range ks {
					if seen[k] {
						continue
					}
					seen[k] = true
					if activeKey[k].Add(1) != 1 {
						bad.Add(1) // two handlers sharing a key overlapped
					}
				}
				mu.Lock()
				ran[i]++
				for k := range seen {
					if lastPerKey[k] >= i+1 {
						bad.Add(1) // out of enqueue order on a shared key
					}
					lastPerKey[k] = i + 1
				}
				mu.Unlock()
				for k := range seen {
					activeKey[k].Add(-1)
				}
			}, opts...)
			if err != nil {
				t.Fatalf("enqueue op %d: %v", i, err)
			}
		}
		q.Close()
		p.Wait()
		if v := bad.Load(); v != 0 {
			t.Fatalf("%d invariant violations (shards=%d batch=%d)", v, shards, batch)
		}
		if v := wrongErr.Load(); v != 0 {
			t.Fatalf("%d dead-letter calls without ErrExpired (shards=%d batch=%d)", v, shards, batch)
		}
		deadMu.Lock()
		defer deadMu.Unlock()
		for i := range script {
			total := ran[i] + deadCount[i]
			if total != 1 {
				t.Fatalf("op %d resolved %d times (ran=%d dead=%d, shards=%d batch=%d)",
					i, total, ran[i], deadCount[i], shards, batch)
			}
			if mustExpire[i] && deadCount[i] != 1 {
				t.Fatalf("op %d expired at birth but ran its handler (shards=%d batch=%d)", i, shards, batch)
			}
		}
		s := q.Stats()
		if s.Completed+s.Expired != uint64(len(script)) || s.Expired != uint64(len(deadCount)) {
			t.Fatalf("inconsistent stats (shards=%d batch=%d): %s", shards, batch, s)
		}
	})
}
