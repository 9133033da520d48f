package pdq

import (
	"context"
)

// Pool runs a fixed set of worker goroutines that dequeue entries from a
// Queue and invoke their handlers — the software analogue of the paper's
// protocol processors, each fed through a Protocol Dispatch Register. It
// is a MuxPool over the mux of one every Queue carries: the same worker
// loop (workerSet.worker), which executes every entry through the public
// Run/RunNext/RunBatch interface, so workers are panic-safe: a handler
// panic becomes Release + the queue's retry/dead-letter policy, and the
// worker keeps serving.
// On a sharded queue (WithShards), workers self-distribute across shards:
// each dispatch attempt starts its shard sweep at a rotating offset, so
// n >= Queue.Shards() workers keep every shard's dispatch lane busy.
// Workers also drive the queue's scheduler (sched.go): an idle worker
// parks with a timer for the earliest delayed-entry maturity, so
// WithDelay/WithNotBefore messages dispatch on time — and expired
// messages reach the dead-letter hook — without any polling, as long as
// the pool is running.
type Pool struct{ workerSet }

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
	p := new(Pool)
	p.start(ctx, &q.solo, n, opts)
	return p
}
