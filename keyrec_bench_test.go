package pdq

import (
	"sync"
	"testing"
)

// The L0 rung for the per-key record (shard.go): the three operations a
// keyed message performs on it — join at admission, pop-head at
// dispatch, release-and-unblock at completion — each on a warm shard
// (records and claims come off the free lists), so ns/op is the
// primitive's own cost and allocs/op must read 0. They live here rather
// than in bench_test.go because that file is package pdq_test and these
// reach inside. Run with:
//
//	go test -run '^$' -bench 'KeyRec|HarvestBlockedPrefix' -benchmem .
//
// BenchmarkNodePool, the rung for the node pool beside them (ring.go), is
// here for the same reason.

func benchShard() *shard {
	return &New().shards[0] // nothing is enqueued, so its ring stays empty
}

// BenchmarkKeyRecJoin: join a fresh key's claim queue as its head, then
// leave again (expire-style: pop, free, reap) so the table stays small.
func BenchmarkKeyRecJoin(b *testing.B) {
	s := benchShard()
	n := &node{home: s}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := s.join(n, Key(i&1023), false)
		rec := c.rec
		rec.popHead(c)
		s.freeClaim(c)
		s.reap(rec)
	}
}

// BenchmarkKeyRecJoinBehind: join behind a standing head — the blocked
// admission — and pop that waiter off again.
func BenchmarkKeyRecJoinBehind(b *testing.B) {
	s := benchShard()
	head, n := &node{home: s}, &node{home: s}
	hc, _ := s.join(head, 7, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, why := s.join(n, 7, false)
		if why != conflictOrder {
			b.Fatal("joined a claimed key without an order conflict")
		}
		// Unlink the tail again (not a queue operation: test scaffolding).
		hc.next, hc.rec.tail = nil, hc
		s.freeClaim(c)
	}
}

// BenchmarkKeyRecAcquireRelease: the dispatch and completion halves for
// one single-key entry with one waiter behind it — pop the head into
// flight, release the key, unblock the successor (count to zero, link
// owed) — then put the pair back.
func BenchmarkKeyRecAcquireRelease(b *testing.B) {
	s := benchShard()
	first, second := &node{home: s}, &node{home: s}
	first.entry.smask, second.entry.smask = 1, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c1, _ := s.join(first, 7, false)
		first.entry.claims = c1
		c2, _ := s.join(second, 7, false)
		second.entry.claims = c2
		second.state.Store(1)
		// Dispatch half of acquire, without the list and counter work.
		c1.n = nil
		c1.rec.popHead(c1)
		c1.rec.inflight++
		d := deferred{hold: true}
		s.releaseOwned(&first.entry, &d)
		if d.owed != second || second.state.Load() != readyBit {
			b.Fatal("release did not hand the successor its link")
		}
		second.owed = nil
		rec := c2.rec
		rec.popHead(c2)
		s.freeClaim(c2)
		s.reap(rec)
	}
}

// BenchmarkNodePool: one node taken and retired — through the shard's
// epochPool, through a sync.Pool, and with no pool at all (new(node), the
// retire a no-op: the GC pays). "same" does both on one goroutine. "split"
// is the queue's shape: a producer goroutine takes, a consumer goroutine
// retires — nodes cross in lots of 64, so the channel between them is a
// sixty-fourth of an operation — which is where a per-P pool's local
// caches stop helping: what one P retires the other P must steal.
func BenchmarkNodePool(b *testing.B) {
	var ep epochPool
	ep.init(nodePoolSize)
	sp := sync.Pool{New: func() any { return new(node) }}
	for _, src := range []struct {
		name string
		get  func() *node
		put  func(*node)
	}{
		{"epochPool", ep.get, ep.put},
		{"syncPool", func() *node { return sp.Get().(*node) }, func(n *node) { n.entry = Entry{}; sp.Put(n) }},
		{"new", func() *node { return new(node) }, func(*node) {}},
	} {
		b.Run(src.name+"/same", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := src.get()
				n.entry.seq = uint64(i)
				src.put(n)
			}
		})
		b.Run(src.name+"/split", func(b *testing.B) {
			const lot = 64
			// Four lots in circulation: up to 256 nodes out at once, well
			// inside either pool.
			taken, retired := make(chan *[lot]*node, 4), make(chan *[lot]*node, 4)
			for i := 0; i < cap(retired); i++ {
				retired <- new([lot]*node)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for l := range taken {
					for _, n := range l {
						src.put(n)
					}
					retired <- l
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += lot {
				l := <-retired
				for j := range l {
					l[j] = src.get()
					l[j].entry.seq = uint64(i + j)
				}
				taken <- l
			}
			close(taken)
			<-done
		})
	}
}
