package pdq

import (
	"context"
)

// Pool runs a fixed set of worker goroutines that dequeue entries from a
// Queue and invoke their handlers — the software analogue of the paper's
// protocol processors, each fed through a Protocol Dispatch Register. The
// pool is built entirely on the public DequeueContext/DequeueBatch/Run
// interface, so workers are panic-safe: a handler panic becomes Release +
// the queue's retry/dead-letter policy, and the worker keeps serving.
// On a sharded queue (WithShards), workers self-distribute across shards:
// each dispatch attempt starts its shard sweep at a rotating offset, so
// n >= Queue.Shards() workers keep every shard's dispatch lane busy.
// Workers also drive the queue's scheduler (sched.go): an idle worker
// parks with a timer for the earliest delayed-entry maturity, so
// WithDelay/WithNotBefore messages dispatch on time — and expired
// messages reach the dead-letter hook — without any polling, as long as
// the pool is running.
type Pool struct {
	workerSet
	q *Queue
}

// PoolOption configures the workers started by Serve and ServeMux.
type PoolOption func(*poolConfig)

type poolConfig struct {
	batch int
}

// WithWorkerBatch makes each worker dequeue up to n entries per blocking
// dispatch (DequeueBatch) and execute them in order through RunBatch,
// amortizing the shard-lock and eventcount cost of dispatch across the
// batch. Per-entry failure isolation is preserved: a panicking handler
// releases only its own entry and the rest of the batch still runs.
// n <= 1, the default, keeps the per-entry DequeueContext path.
func WithWorkerBatch(n int) PoolOption {
	return func(c *poolConfig) { c.batch = n }
}

// Serve starts n worker goroutines dispatching from q and returns a Pool
// controlling them. Workers exit when ctx is cancelled, Stop is called, or
// the queue is closed and drained. n is clamped to at least 1; a natural
// choice for a sharded queue is max(q.Shards(), GOMAXPROCS). Worker
// behavior is shaped by opts (see WithWorkerBatch).
func Serve(ctx context.Context, q *Queue, n int, opts ...PoolOption) *Pool {
	p := &Pool{q: q}
	p.start(ctx, n, opts, p.worker)
	return p
}

func (p *Pool) worker(ctx context.Context) {
	if p.batch > 1 {
		for {
			es, err := p.q.DequeueBatch(ctx, p.batch)
			if err != nil {
				return // cancelled, or closed and drained
			}
			// RunBatch keeps the per-entry lifecycle inside the batch: a
			// panicking handler releases only its own entry.
			p.q.RunBatch(es)
		}
	}
	for {
		e, err := p.q.DequeueContext(ctx)
		if err != nil {
			return // cancelled, or closed and drained
		}
		// RunNext recovers a handler panic into Release like Run, and on
		// success hands the worker the completed entry's chain successor
		// when one is immediately dispatchable — the worker rides a deep
		// per-key backlog link to link instead of re-entering the general
		// dequeue (see CompleteNext). Cancellation is honored between links:
		// a cancelled worker finishes the entry it holds without handing
		// off, exactly like Run.
		for {
			if ctx.Err() != nil {
				p.q.Run(e)
				break
			}
			next, ok, _ := p.q.RunNext(e)
			if !ok {
				break
			}
			e = next
		}
	}
}

// Workers, Stop, and Wait come from the embedded workerSet; Pool and
// MuxPool share the one WorkerGroup lifecycle.
