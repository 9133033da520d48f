package pdq

import (
	"context"
	"sync"
)

// WorkerGroup is the lifecycle shared by the worker pools Serve and
// ServeMux return. Servers that run either kind of pool (cmd/pdqd) hold
// this interface instead of the concrete type.
type WorkerGroup interface {
	// Workers reports how many workers the group started with.
	Workers() int
	// Stop cancels the workers and waits for them to exit. Handlers
	// already running complete normally; undispatched entries remain
	// queued. For a clean drain instead, close the queue (or mux) and
	// call Wait.
	Stop()
	// Wait blocks until all workers have exited (e.g. after Queue.Close
	// or Mux.Close once the backlog drains).
	Wait()
}

var (
	_ WorkerGroup = (*Pool)(nil)
	_ WorkerGroup = (*MuxPool)(nil)
)

// workerSet is the one implementation of WorkerGroup and the one worker
// loop; Pool and MuxPool are it under two names.
type workerSet struct {
	wg      sync.WaitGroup
	cancel  context.CancelFunc
	workers int
	batch   int
	m       *Mux
}

// start clamps n to at least 1, applies opts, and launches n workers on m
// under a context derived from ctx.
func (s *workerSet) start(ctx context.Context, m *Mux, n int, opts []PoolOption) {
	if n < 1 {
		n = 1
	}
	var cfg poolConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.workers, s.batch, s.m = n, cfg.batch, m
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer s.wg.Done()
			s.worker(ctx)
		}()
	}
}

// worker dispatches from the mux until it is cancelled or the mux is
// closed and drained. Every entry executes on its owning queue through
// RunBatch, RunNext or Run, so a handler panic becomes that queue's
// Release (retry/dead-letter) and the worker survives.
func (s *workerSet) worker(ctx context.Context) {
	// One cancellation wake for the worker's lifetime, not one per
	// blocking dequeue that parks.
	defer context.AfterFunc(ctx, s.m.pk.wakeAll)()
	if s.batch > 1 {
		var all []MuxBatch // reused: no result slice per dispatch
		for {
			clear(all) // a parked worker must not pin the last batch
			all = all[:0]
			if _, _, err := s.m.blockDequeue(ctx, true, s.batch, nil, &all); err != nil {
				return
			}
			for _, b := range all {
				b.Queue.RunBatch(b.Entries)
			}
		}
	}
	for {
		var one [1]*Entry
		q, es, err := s.m.blockDequeue(ctx, true, 1, one[:0], nil)
		if err != nil {
			return
		}
		e := es[0]
		// While the mux holds a single queue, RunNext hands the worker the
		// completed entry's chain successor when one is immediately
		// dispatchable — it rides a deep per-key backlog link to link
		// instead of re-entering the general dequeue (see CompleteNext).
		// With siblings the ride would pass them over (a handoff falls back
		// to the oldest ready entry of the same shard), so round-robin
		// fairness takes every entry through the mux instead. Cancellation
		// is honored between links: a cancelled worker finishes the entry
		// it holds without handing off.
		for ok := true; ok; {
			if ctx.Err() != nil || len(s.m.snapshot()) != 1 {
				q.Run(e)
				break
			}
			e, ok, _ = q.RunNext(e)
		}
	}
}

// Workers reports how many workers the group started with.
func (s *workerSet) Workers() int { return s.workers }

// Stop cancels the workers and waits for them to exit. Handlers already
// running complete normally; undispatched entries remain in the queue.
// For a clean drain instead, close the queue (or mux) and call Wait.
func (s *workerSet) Stop() {
	s.cancel()
	s.wg.Wait()
}

// Wait blocks until all workers have exited (e.g. after Queue.Close or
// Mux.Close once the backlog drains).
func (s *workerSet) Wait() { s.wg.Wait() }
