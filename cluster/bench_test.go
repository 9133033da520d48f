package cluster

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"pdq"
)

// The cluster's L0/L1 rung: what one message costs in the session layer
// itself, on a two-node zero-fault cluster over the in-process transport,
// with a no-op handler. ns/op is wall time per message at a bounded
// backlog, so it includes the hand-offs between the producer, the two
// mailbox goroutines and the node workers; allocs/op is exact.

// benchSession enqueues b.N messages at node 0, keyed by keysOf, keeping at
// most a few thousand in flight, and stops the clock when the last has run.
func benchSession(b *testing.B, keysOf func(c *Cluster, i int) []pdq.Key) {
	c, err := New(2)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var ran atomic.Int64
	if err := c.Register("h", func(any) { ran.Add(1) }); err != nil {
		b.Fatal(err)
	}
	const pairs, inFlight = 64, 4096
	keys := make([][]pdq.Key, pairs)
	for i := range keys {
		keys[i] = keysOf(c, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-ran.Load() >= inFlight {
			runtime.Gosched()
		}
		if err := c.Enqueue(0, "h", nil, keys[i%pairs]...); err != nil {
			b.Fatal(err)
		}
	}
	for ran.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if err := c.Quiesce(context.Background()); err != nil {
		b.Fatal(err)
	}
	s := c.Stats()
	if s.Executed != uint64(b.N) {
		b.Fatalf("executed %d of %d", s.Executed, b.N)
	}
	b.ReportMetric(float64(s.MsgsSent)/float64(b.N), "wire/op")
	b.ReportMetric(float64(s.Redelivered)/float64(b.N), "resent/op")
}

// BenchmarkSessionForward is forward → admit → run → ack: a single-key
// message enqueued at the node that does not own the key.
func BenchmarkSessionForward(b *testing.B) {
	benchSession(b, func(c *Cluster, i int) []pdq.Key {
		return []pdq.Key{keyOwnedBy(b, c, 1, pdq.Key(1000*i))}
	})
}

// BenchmarkSessionSpan is claim → grant → run → release: a two-key message
// with one key owned by each node.
func BenchmarkSessionSpan(b *testing.B) {
	benchSession(b, func(c *Cluster, i int) []pdq.Key {
		return []pdq.Key{keyOwnedBy(b, c, 0, pdq.Key(1000*i)), keyOwnedBy(b, c, 1, pdq.Key(1000*i))}
	})
}

// One forwarded single-key message, end to end — route, session send,
// mailbox, in-order receive, admission, dispatch, run, and the delayed ack
// on its tick. One allocation is the message's: the wire message's key
// slice (the queue copies it into its pooled node and hands the entry out
// in place). The other three are the core parking the worker between
// messages, which a one-at-a-time test cannot avoid
// (BenchmarkSessionForward, which keeps the worker busy, reports 1
// alloc/op). The session layer itself — windows, mailboxes, acks, the
// handler wrapper — allocates nothing once its buffers have grown.
func TestClusterForwardAllocs(t *testing.T) {
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ran := make(chan struct{}, 1)
	if err := c.Register("h", func(any) { ran <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	keys := []pdq.Key{keyOwnedBy(t, c, 1, 0)}
	const ceiling = 4
	got := testing.AllocsPerRun(2000, func() {
		if err := c.Enqueue(0, "h", nil, keys...); err != nil {
			t.Fatal(err)
		}
		<-ran
	})
	if got > ceiling {
		t.Fatalf("a forwarded message costs %.0f allocations, ceiling %d", got, ceiling)
	}
	if s := c.Stats(); s.Forwarded == 0 || s.Forwarded != s.Executed {
		t.Fatalf("not the forwarding path: %v", s)
	}
}
