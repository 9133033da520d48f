package pdq

import "testing"

// The L0 rung for the per-key record (shard.go): the three operations a
// keyed message performs on it — join at admission, pop-head at
// dispatch, release-and-unblock at completion — each on a warm shard
// (records and claims come off the free lists), so ns/op is the
// primitive's own cost and allocs/op must read 0. They live here rather
// than in bench_test.go because that file is package pdq_test and these
// reach inside. Run with:
//
//	go test -run '^$' -bench 'KeyRec|HarvestBlockedPrefix' -benchmem .

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
