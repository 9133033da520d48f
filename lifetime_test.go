package pdq

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The node is the entry (docs/INVARIANTS.md § Entry lifetime): these tests
// pin what that must not break — a second resolution stays loud, whatever
// the queue hands to code that may keep it (the dead-letter hook, a
// retried or re-admitted message) owns its keys, a resolved entry pins
// nothing, and the per-shard free lists beside the node pool are bounded.

// churn pushes n messages on keys of their own through q, one at a time,
// so every node retired before the call has been reused by the end of it.
func churn(t *testing.T, q *Queue, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustEnqueue(t, q.EnqueueMessage(Message{Handler: func(any) {}, Keys: []Key{1<<40 + Key(i), 1<<41 + Key(i), 1<<42 + Key(i)}}))
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatal("churn message not dispatchable")
		}
		q.Complete(e)
	}
}

func mustDequeue(t *testing.T, q *Queue) *Entry {
	t.Helper()
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("nothing dispatchable")
	}
	return e
}

func TestDoubleResolvePanics(t *testing.T) {
	noop := func(any) {}
	for _, c := range []struct {
		name    string
		m       Message
		resolve func(q *Queue, e *Entry)
		again   func(q *Queue, e *Entry)
	}{
		{"keyed", Message{Handler: noop, Keys: []Key{1, 2}},
			func(q *Queue, e *Entry) { q.Complete(e) }, func(q *Queue, e *Entry) { q.Complete(e) }},
		{"keyed-release-after-complete", Message{Handler: noop, Keys: []Key{1}},
			func(q *Queue, e *Entry) { q.Complete(e) }, func(q *Queue, e *Entry) { q.Release(e, errors.New("late")) }},
		{"nosync", Message{Handler: noop, Mode: ModeNoSync},
			func(q *Queue, e *Entry) { q.Complete(e) }, func(q *Queue, e *Entry) { q.Complete(e) }},
		{"sequential", Message{Handler: noop, Mode: ModeSequential},
			func(q *Queue, e *Entry) { q.Complete(e) }, func(q *Queue, e *Entry) { q.Complete(e) }},
		{"released", Message{Handler: noop, Keys: []Key{1}},
			func(q *Queue, e *Entry) { q.Release(e, errors.New("failed")) }, func(q *Queue, e *Entry) { q.Complete(e) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := New(WithDeadLetter(func(Message, error) {}))
			mustEnqueue(t, q.EnqueueMessage(c.m))
			e := mustDequeue(t, q)
			c.resolve(q, e)
			expectNotInFlightPanic(t, func() { c.again(q, e) })
			if q.InFlight() != 0 {
				t.Fatalf("the refused resolution moved the in-flight count to %d", q.InFlight())
			}
		})
	}
	t.Run("batch-completed", func(t *testing.T) {
		q := New()
		for i := 0; i < 4; i++ {
			mustEnqueue(t, q.Enqueue(noop, WithKey(Key(i))))
		}
		es, ok := q.TryDequeueBatch(4)
		if !ok || len(es) != 4 {
			t.Fatalf("harvested %d of 4", len(es))
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
		expectNotInFlightPanic(t, func() { q.Complete(es[2]) })
		expectNotInFlightPanic(t, func() { q.RunBatch(es[:2]) })
		if q.InFlight() != 0 {
			t.Fatalf("the refused resolutions moved the in-flight count to %d", q.InFlight())
		}
	})
}

func expectNotInFlightPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "not in flight") {
			t.Fatalf("second resolution: recovered %v, want the not-in-flight panic", r)
		}
	}()
	f()
}

// Keys that leave the queue inside a Message the receiver may keep — to
// the dead-letter hook on the expiry, retry-exhausted and Goexit paths —
// and keys carried over to a retry must not alias a node that later
// messages reuse.
func TestRetainedKeysSurviveNodeReuse(t *testing.T) {
	type dead struct {
		m   Message
		err error
	}
	var got []dead
	q := New(WithRetry(1), WithDeadLetter(func(m Message, err error) { got = append(got, dead{m, err}) }))
	noop := func(any) {}
	failed := errors.New("failed")

	// Expiry: dead-lettered by the pop that meets it.
	mustEnqueue(t, q.Enqueue(noop, WithKeys(21, 22), WithDeadline(schedNow().Add(-time.Second))))
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("expired entry dispatched")
	}

	// Retry: the retried message waits behind a holder of key 7 while
	// 10k messages reuse the node it was released from.
	mustEnqueue(t, q.Enqueue(noop, WithKeys(7, 8, 9)))
	mustEnqueue(t, q.Enqueue(noop, WithKey(7)))
	q.Release(mustDequeue(t, q), failed)
	holder := mustDequeue(t, q)
	churn(t, q, 10_000)
	q.Complete(holder)
	retry := mustDequeue(t, q)
	if k := retry.Message().Keys; !slices.Equal(k, []Key{7, 8, 9}) || retry.Attempt() != 1 {
		t.Fatalf("retry carries keys %v attempt %d, want [7 8 9] attempt 1", k, retry.Attempt())
	}
	q.Release(retry, failed) // budget exhausted: dead-letters

	// Goexit: released with ErrHandlerExited from the dying goroutine.
	mustEnqueue(t, q.Enqueue(func(any) { runtime.Goexit() }, WithKeys(31, 32, 33, 34)))
	e := mustDequeue(t, q)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		q.Run(e)
	}()
	<-exited

	churn(t, q, 10_000)
	want := []struct {
		keys []Key
		err  error
	}{{[]Key{21, 22}, ErrExpired}, {[]Key{7, 8, 9}, failed}, {[]Key{31, 32, 33, 34}, ErrHandlerExited}}
	if len(got) != len(want) {
		t.Fatalf("%d dead letters, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !slices.Equal(got[i].m.Keys, w.keys) || !errors.Is(got[i].err, w.err) {
			t.Errorf("dead letter %d: keys %v err %v; want %v %v", i, got[i].m.Keys, got[i].err, w.keys, w.err)
		}
	}
}

// A coalesced run's merged messages outlive their own nodes (retired at
// the merge) on the representative's key slice; releasing the run must
// re-admit every one of them under those keys.
func TestCoalescedReleaseReadmitsUnderRightKeys(t *testing.T) {
	q := New(WithCoalesce(0), WithRetry(1))
	h := func([]any) {}
	const run = 4
	for i := 0; i < run; i++ {
		mustEnqueue(t, q.Enqueue(nil, BatchHandler(h), WithKeys(5, 6), WithData(i)))
	}
	es, ok := q.TryDequeueBatch(run)
	if !ok || len(es) != 1 || es[0].Size() != run {
		t.Fatalf("harvest did not coalesce the run: %d entries", len(es))
	}
	churn(t, q, 2*nodePoolSize) // the merged nodes are long reused
	q.Release(es[0], errors.New("failed"))
	var datas []int
	for i := 0; i < run; i++ {
		e := mustDequeue(t, q)
		if _, ok := q.TryDequeue(); ok {
			t.Fatal("two re-admitted messages of one key set in flight together")
		}
		m := e.Message()
		if !slices.Equal(m.Keys, []Key{5, 6}) || e.Attempt() != 1 || e.Size() != 1 {
			t.Fatalf("re-admitted message: keys %v attempt %d size %d", m.Keys, e.Attempt(), e.Size())
		}
		datas = append(datas, m.Data.(int))
		q.Complete(e)
	}
	if !slices.Equal(datas, []int{0, 1, 2, 3}) {
		t.Fatalf("re-admitted payloads %v, want [0 1 2 3] in order", datas)
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("left %d pending, %d in flight", q.Len(), q.InFlight())
	}
}

// A resolved entry's node goes back to the pool zeroed (and a sequential
// entry's slot in the barrier queue is cleared when it leaves): the payload
// it carried is garbage while the queue lives on.
func TestCompletedEntryPinsNothing(t *testing.T) {
	for _, mode := range []EnqueueOption{WithKey(1), Sequential()} {
		q := New()
		collected := make(chan struct{})
		q.Complete(dispatchFinalizable(t, q, mode, collected))
		for i := 0; ; i++ {
			if i == 100 {
				t.Fatalf("%v payload never collected after Complete: the queue still references it", mode.mode)
			}
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(10 * time.Millisecond):
				continue
			}
			break
		}
		runtime.KeepAlive(q)
	}
}

//go:noinline
func dispatchFinalizable(t *testing.T, q *Queue, mode EnqueueOption, collected chan struct{}) *Entry {
	payload := new([64]byte)
	runtime.SetFinalizer(payload, func(*[64]byte) { close(collected) })
	mustEnqueue(t, q.Enqueue(func(any) {}, mode, WithData(payload)))
	return mustDequeue(t, q)
}

// The per-shard keyRec and claim free lists are capped like the node pool
// beside them: a burst over a million distinct keys, pending thousands
// deep, leaves nodePoolSize records and maxFreeClaims claims behind.
func TestKeyFreeListsBounded(t *testing.T) {
	total, wave := 1<<20, 4*maxFreeClaims // two shards: each wave overflows both lists twice over
	if testing.Short() {
		total = 1 << 16
	}
	q := New(WithShards(2))
	noop := func(any) {}
	for k := 0; k < total; {
		for i := 0; i < wave; i, k = i+1, k+1 {
			mustEnqueue(t, q.EnqueueMessage(Message{Handler: noop, Keys: []Key{Key(k)}}))
		}
		for i := 0; i < wave; i++ {
			q.Complete(mustDequeue(t, q))
		}
	}
	for i := range q.shards {
		s := &q.shards[i]
		recs, claims := 0, 0
		for r := s.freeRecs; r != nil; r = r.next {
			recs++
		}
		for c := s.freeClaims; c != nil; c = c.next {
			claims++
		}
		if recs != s.nfreeRecs || claims != s.nfreeClaims {
			t.Errorf("shard %d: lists hold %d records, %d claims; counted %d, %d", i, recs, claims, s.nfreeRecs, s.nfreeClaims)
		}
		if recs != nodePoolSize || claims != maxFreeClaims {
			t.Errorf("shard %d: %d records, %d claims on the free lists after the burst; want the caps, %d and %d", i, recs, claims, nodePoolSize, maxFreeClaims)
		}
		if len(s.keys) != 0 {
			t.Errorf("shard %d: %d key records still live", i, len(s.keys))
		}
	}
}
