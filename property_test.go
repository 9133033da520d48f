package pdq

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// opKind encodes a randomly generated queue operation for property tests.
type opKind uint8

const (
	opKeyed opKind = iota
	opSeq
	opNoSync
)

// keyUniverse bounds the generated key space so conflicts are common.
const keyUniverse = 5

// scriptEntry is one generated enqueue: a mode and a key set of 1–3 keys
// for keyed entries (the v2 key-set surface).
type scriptEntry struct {
	kind opKind
	keys []Key
}

func genScript(r *rand.Rand, n int) []scriptEntry {
	s := make([]scriptEntry, n)
	for i := range s {
		switch r.Intn(10) {
		case 0:
			s[i] = scriptEntry{kind: opSeq}
		case 1:
			s[i] = scriptEntry{kind: opNoSync}
		default:
			nk := 1 + r.Intn(3)
			ks := make([]Key, nk)
			for j := range ks {
				ks[j] = Key(r.Intn(keyUniverse))
			}
			s[i] = scriptEntry{kind: opKeyed, keys: ks}
		}
	}
	return s
}

// runScript executes a script on a pool and checks the PDQ invariants:
//  1. every enqueued handler runs exactly once;
//  2. handlers with overlapping key sets never overlap in time and run in
//     enqueue order on every shared key;
//  3. a sequential handler overlaps nothing and observes all earlier
//     handlers complete and no later handler started.
func runScript(t *testing.T, script []scriptEntry, workers int, opts ...Option) bool {
	q := New(opts...)
	var ran atomic.Int64
	var bad atomic.Int32
	var activeAll atomic.Int32
	var activeKey [keyUniverse]atomic.Int32
	var mu sync.Mutex
	lastPerKey := map[Key]int{}
	doneBefore := make([]atomic.Bool, len(script))

	for i, op := range script {
		i, op := i, op
		var err error
		switch op.kind {
		case opSeq:
			err = q.Enqueue(func(any) {
				if activeAll.Add(1) != 1 {
					bad.Add(1)
				}
				for j := 0; j < i; j++ {
					if !doneBefore[j].Load() {
						bad.Add(1)
					}
				}
				for j := i + 1; j < len(script); j++ {
					if doneBefore[j].Load() {
						bad.Add(1)
					}
				}
				doneBefore[i].Store(true)
				ran.Add(1)
				activeAll.Add(-1)
			}, Sequential())
		case opNoSync:
			err = q.Enqueue(func(any) {
				activeAll.Add(1)
				doneBefore[i].Store(true)
				ran.Add(1)
				activeAll.Add(-1)
			}, NoSync())
		default:
			ks := op.keys
			err = q.Enqueue(func(any) {
				activeAll.Add(1)
				seen := map[Key]bool{}
				for _, k := range ks {
					if seen[k] {
						continue // duplicate key in the set
					}
					seen[k] = true
					if activeKey[k].Add(1) != 1 {
						bad.Add(1) // two handlers sharing a key overlap
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
				doneBefore[i].Store(true)
				ran.Add(1)
				for k := range seen {
					activeKey[k].Add(-1)
				}
				activeAll.Add(-1)
			}, WithKeys(ks...))
		}
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	p := Serve(context.Background(), q, workers)
	q.Close()
	p.Wait()
	if ran.Load() != int64(len(script)) {
		t.Logf("ran %d of %d", ran.Load(), len(script))
		return false
	}
	if bad.Load() != 0 {
		t.Logf("%d invariant violations", bad.Load())
		return false
	}
	s := q.Stats()
	if s.Dispatched != s.Completed || s.Enqueued != uint64(len(script)) {
		t.Logf("inconsistent stats: %s", s)
		return false
	}
	return true
}

func TestPropertyInvariantsRandomScripts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64, rawWorkers uint8) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(rawWorkers%8) + 1
		script := genScript(r, 120)
		return runScript(t, script, workers)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDrainAlwaysEmpties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := New()
		n := 50 + r.Intn(100)
		var count atomic.Int64
		for i := 0; i < n; i++ {
			if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(r.Intn(7)))); err != nil {
				return false
			}
		}
		p := Serve(context.Background(), q, 1+r.Intn(6))
		q.Drain()
		if q.Len() != 0 || q.InFlight() != 0 || count.Load() != int64(n) {
			return false
		}
		q.Close()
		p.Wait()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStatsBalance(t *testing.T) {
	// After close+drain: enqueued == dispatched == completed, regardless of
	// the mix of modes, key-set sizes, or workers.
	f := func(seed int64, rawWorkers uint8) bool {
		r := rand.New(rand.NewSource(seed))
		q := New()
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
			s.Enqueued == uint64(len(script))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEnqueueWaitLosesNothing(t *testing.T) {
	// A bounded queue fed exclusively by EnqueueWait under a running pool
	// handles every message exactly once, whatever the capacity.
	f := func(seed int64, rawCap uint8) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := int(rawCap%7) + 1
		q := New(WithCapacity(capacity))
		p := Serve(context.Background(), q, 1+r.Intn(4))
		n := 100 + r.Intn(200)
		var count atomic.Int64
		for i := 0; i < n; i++ {
			if err := q.EnqueueWait(context.Background(), func(any) { count.Add(1) }, WithKey(Key(r.Intn(4)))); err != nil {
				return false
			}
		}
		q.Close()
		p.Wait()
		return count.Load() == int64(n) && q.Stats().Rejected == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
