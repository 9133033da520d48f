package pdq

import (
	"context"
	"testing"
)

// TestDispatchPathAllocs pins the heap allocations of the two hot
// consumer cycles — enqueue → TryDequeue → Complete, and a Run/RunNext
// chain handoff — at zero: the pooled node is the message's only home from
// admission to resolution (its key set inline, its Entry handed out in
// place), so a result slice, a key copy or an in-batch key set that
// reaches the heap on the single-entry path fails here in milliseconds
// rather than in a benchmark run. That holds with a backlog on hundreds of
// distinct keys at once, where every key needs its own record and claim —
// those come off the shard's free lists — and the one exception is a key
// set too large for the node's inline storage, which costs its one
// private clone.
//
// The blocking dequeue with an entry ready costs exactly what TryDequeue
// does, through a Queue and through a Mux holding it: both enter the one
// wait loop (Mux.blockDequeue), whose first attempt must put no closure,
// result slice or MuxBatch on the heap, and which arranges its
// cancellation wake only once it is about to park.
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
			{"single-key", cycle(Message{Handler: noop, Keys: keys[:1]}), 0},
			{"key-set", cycle(Message{Handler: noop, Keys: keys}), 0},
			{"spill-key-set", cycle(Message{Handler: noop, Keys: []Key{1, 2, 3, 4, 5}}), 1}, // past keybuf: one clone
			{"nosync", cycle(Message{Handler: noop, Mode: ModeNoSync}), 0},
			{"chain-handoff", chain, 0},
			{"wide-backlog", backlog, wide}, // the test's own key literals
		} {
			c.f() // warm the node pool, claim queues and maps
			if got := testing.AllocsPerRun(200, c.f); got != c.want {
				t.Errorf("shards=%d/%s: %v allocs per cycle; want %v", shards, c.name, got, c.want)
			}
		}

		ctx, cancel := context.WithCancel(context.Background()) // cancellable: Done() != nil
		defer cancel()
		m := NewMux()
		mq, err := m.Queue("only", WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name    string
			q       *Queue
			dequeue func() (*Entry, error)
		}{
			{"queue", q, func() (*Entry, error) { return q.DequeueContext(ctx) }},
			{"mux", mq, func() (*Entry, error) { _, e, err := m.DequeueContext(ctx); return e, err }},
		} {
			for _, c := range []struct {
				name string
				m    Message
				want float64
			}{
				{"single-key", Message{Handler: noop, Keys: keys[:1]}, 0},
				{"key-set", Message{Handler: noop, Keys: keys}, 0},
				{"nosync", Message{Handler: noop, Mode: ModeNoSync}, 0},
			} {
				f := func() {
					if err := b.q.EnqueueMessage(c.m); err != nil {
						t.Fatal(err)
					}
					e, err := b.dequeue()
					if err != nil {
						t.Fatal(err)
					}
					b.q.Complete(e)
				}
				f()
				if got := testing.AllocsPerRun(200, f); got != c.want {
					t.Errorf("shards=%d/blocking-%s/%s: %v allocs per cycle; want %v", shards, b.name, c.name, got, c.want)
				}
			}
		}
	}
}
