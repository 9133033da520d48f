package pdq

import "testing"

// TestDispatchPathAllocs pins the heap allocations of the two hot
// consumer cycles — enqueue → TryDequeue → Complete, and a Run/RunNext
// chain handoff — to the counts measured before single dequeue became a
// harvest of one. The benchmark bounds allocs_per_msg at 3% (under a
// tenth of an allocation per message), so a result slice or an in-batch
// key set that reaches the heap on the single-entry path fails here in
// milliseconds rather than in a benchmark run. Each cycle costs the
// message's key slice and the dispatched Entry; nothing else — also with
// a backlog on hundreds of distinct keys at once, where every key needs
// its own record and claim: those come off the shard's free lists (the
// per-key claim FIFOs they replaced were pooled 64 deep, so a wider
// backlog allocated one per message).
func TestDispatchPathAllocs(t *testing.T) {
	noop := func(any) {}
	for _, shards := range []int{1, 4} {
		q := New(WithShards(shards))
		keys := []Key{1, 2}
		if shards > 1 {
			keys = distinctShardKeys(t, q, 2) // the cross-shard dispatch path
		}
		cycle := func(m Message) func() {
			return func() {
				if err := q.EnqueueMessage(m); err != nil {
					t.Fatal(err)
				}
				e, ok := q.TryDequeue()
				if !ok {
					t.Fatal("nothing dispatchable")
				}
				q.Complete(e)
			}
		}
		chain := func() {
			for i := 0; i < 2; i++ {
				if err := q.EnqueueMessage(Message{Handler: noop, Keys: keys[:1]}); err != nil {
					t.Fatal(err)
				}
			}
			e, ok := q.TryDequeue()
			if !ok {
				t.Fatal("nothing dispatchable")
			}
			next, ok, err := q.RunNext(e)
			if !ok || err != nil {
				t.Fatalf("no chain handoff: ok=%v err=%v", ok, err)
			}
			if err := q.Run(next); err != nil {
				t.Fatal(err)
			}
		}
		const wide = 256
		backlog := func() {
			for i := 0; i < wide; i++ {
				if err := q.EnqueueMessage(Message{Handler: noop, Keys: []Key{Key(1000 + i)}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < wide; i++ {
				e, ok := q.TryDequeue()
				if !ok {
					t.Fatal("nothing dispatchable")
				}
				q.Complete(e)
			}
		}
		for _, c := range []struct {
			name string
			f    func()
			want float64
		}{
			{"single-key", cycle(Message{Handler: noop, Keys: keys[:1]}), 2},
			{"key-set", cycle(Message{Handler: noop, Keys: keys}), 2},
			{"nosync", cycle(Message{Handler: noop, Mode: ModeNoSync}), 1},
			{"chain-handoff", chain, 4},
			{"wide-backlog", backlog, 3 * wide}, // the literal key slice, its admission copy, the Entry
		} {
			c.f() // warm the node pool, claim queues and maps
			if got := testing.AllocsPerRun(200, c.f); got != c.want {
				t.Errorf("shards=%d/%s: %v allocs per cycle; want %v", shards, c.name, got, c.want)
			}
		}
	}
}
