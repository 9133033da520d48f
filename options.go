package pdq

import "time"

// config collects queue construction parameters assembled by New from
// Options; it is not part of the public surface.
type config struct {
	capacity    int
	shards      int
	retry       int
	deadLetter  func(m Message, err error)
	coalesce    bool
	coalesceMax int
	traceRate   float64
	traceNode   int
}

// Option configures a Queue at construction time. Options are applied in
// order; later options override earlier ones.
type Option func(*config)

// WithCapacity bounds the number of pending entries. Enqueue beyond
// capacity fails with ErrFull and EnqueueWait blocks (the hardware
// analogue is back-pressure into the network; spilling to memory is
// modeled by an unbounded queue). n <= 0 means unbounded, the default.
func WithCapacity(n int) Option {
	return func(c *config) { c.capacity = n }
}

// WithShards partitions the synchronization key space across n dispatch
// shards, each with its own pending and ready lists, per-key records, and
// lock, so traffic on keys owned by different shards never contends on a
// shared mutex. n is rounded up to a power of two and capped at 64;
// n <= 0 derives the count from GOMAXPROCS. Multi-key entries spanning
// shards are homed on the shard of their lowest-hashing key and claim
// their remaining keys on the other shards, and Sequential entries drain
// all shards through a cross-shard epoch barrier. Queues default to a
// single shard, on which ready entries of one band dispatch in exact
// global enqueue order (with n > 1 that order is per shard).
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithRetry grants every entry a retry budget of n failed attempts: an
// entry passed to Release (directly, or by Run recovering a handler
// panic) is re-enqueued at the tail of the queue with a fresh sequence
// number — losing its original ordering position, which its failure
// already forfeited — until it has failed 1+n times, after which it goes
// to the dead-letter hook. The retried entry carries its attempt count
// and last error (Entry.Attempt, Entry.Err). n <= 0, the default, means
// no retries: every released entry dead-letters immediately. The budget
// is capped at maxRetryBudget (effectively unbounded).
func WithRetry(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		if n > maxRetryBudget {
			n = maxRetryBudget
		}
		c.retry = n
	}
}

// maxRetryBudget caps WithRetry so the budget always fits the uint32
// attempt counter carried on Entry (a larger value would truncate in the
// attempt comparison and silently shrink the budget).
const maxRetryBudget = 1 << 30

// WithDeadLetter installs the terminal failure hook: fn receives the
// Message and error of every entry that exhausts its retry budget (or is
// Released with no budget configured). The hook runs on the goroutine
// that called Release — a pool worker, for panics — before the entry is
// counted out of flight, so Drain waits for it; it should be quick and
// must not call back into blocking queue operations on a full queue. The
// default policy logs the entry via the standard log package.
func WithDeadLetter(fn func(m Message, err error)) Option {
	return func(c *config) { c.deadLetter = fn }
}

// WithCoalesce lets the batch harvest (TryDequeueBatch, DequeueBatch,
// WithWorkerBatch workers) merge a run of consecutive dispatchable
// entries carrying identical key sets and the same Batch handler
// function value (the BatchHandler enqueue option; distinct closures —
// even of the same body — never merge) into a single entry: that
// handler is invoked once with every payload in enqueue order, and
// one Complete or Release resolves the whole entry. max bounds how many
// messages may merge into one invocation (<= 0 means bounded only by the
// harvest's batch size). Coalescing is safe exactly when the handler is
// written over the payload slice — per-key enqueue order is preserved
// inside the slice, mutual exclusion is held for the merged run as a
// unit — but failure isolation coarsens: a Release (e.g. a recovered
// panic) of a merged entry retries or dead-letters every message it
// carries, since the queue cannot know which payload failed. Retried
// entries never coalesce. The default is no coalescing.
func WithCoalesce(max int) Option {
	return func(c *config) {
		c.coalesce = true
		c.coalesceMax = max
	}
}

// WithTrace enables the entry-lifecycle flight recorder (trace.go),
// sampling rate of admissions: each sampled message is stamped with a
// process-unique trace ID and every lifecycle edge it crosses —
// admission path, ring drain, claim join, maturity, dispatch, harvest,
// handler run, completion, handoff, failure resolution — is recorded as
// a timestamped event in per-shard bounded rings, drained by
// Queue.TraceSnapshot. rate is clamped to (0, 1]: 1 traces everything,
// 0.01 every ~100th admission; rate <= 0 leaves tracing off (the
// default), in which case the record sites cost a single predictable
// nil-check branch.
func WithTrace(rate float64) Option {
	return func(c *config) {
		if rate > 1 {
			rate = 1
		}
		c.traceRate = rate
	}
}

// WithTraceNode labels every trace event this queue records with a node
// identity, so the merged event streams of several queues — the node
// queues of a cluster — attribute each event to the queue that recorded
// it. Purely a label; it has no effect without WithTrace.
func WithTraceNode(id int) Option {
	return func(c *config) { c.traceNode = id }
}

// EnqueueOption shapes one enqueued message. It is a small value type (not
// a closure) so option construction costs nothing on the enqueue hot path.
type EnqueueOption struct {
	mode    Mode
	hasMode bool
	key     Key
	keys    []Key
	keyKind uint8 // 0 = none, 1 = single key, 2 = key slice
	data    any
	hasData bool
	batch   func(datas []any)

	// Scheduling options (sched.go): priority band, delayed delivery,
	// and message deadline.
	prio         int
	hasPrio      bool
	delay        time.Duration
	hasDelay     bool
	notBefore    time.Time
	hasNotBefore bool
	ttl          time.Duration
	hasTTL       bool
	deadline     time.Time
	hasDeadline  bool

	// Trace identity (trace.go): nonzero forces the message into the
	// flight recorder under that ID, bypassing the sampler.
	traceID uint64
}

// WithKey adds a single key to the message's synchronization key set. It
// is the allocation-free form of WithKeys for the common one-resource
// case.
func WithKey(k Key) EnqueueOption {
	return EnqueueOption{key: k, keyKind: 1}
}

// WithKeys adds keys to the message's synchronization key set — the group
// of resources the handler will touch. The handler dispatches only when
// every key is conflict-free: it serializes, in enqueue order, against any
// in-flight or earlier-blocked entry whose key set overlaps, while entries
// with disjoint key sets run in parallel. Repeated key options accumulate;
// duplicate keys are harmless.
func WithKeys(keys ...Key) EnqueueOption {
	return EnqueueOption{keys: keys, keyKind: 2}
}

// BatchHandler supplies the message's handler in batch form, in place of
// the handler argument of Enqueue (which must then be nil): fn receives
// the payloads of every message merged into the dispatched entry, in
// enqueue order. Unless the queue was built WithCoalesce and the batch
// harvest merged an identical-key run, len(datas) is 1, so fn is simply
// the coalescable spelling of a normal handler. See WithCoalesce for
// when merging is safe.
func BatchHandler(fn func(datas []any)) EnqueueOption {
	return EnqueueOption{batch: fn}
}

// WithData attaches an arbitrary payload, delivered to the handler as its
// argument. For a typed, boxing-free alternative see Handler.Bind.
func WithData(data any) EnqueueOption {
	return EnqueueOption{data: data, hasData: true}
}

// Sequential marks the message as a full barrier in queue order: every
// earlier entry completes before the handler runs, the handler runs alone,
// and no later entry dispatches until it completes. It must not be
// combined with key options.
func Sequential() EnqueueOption {
	return EnqueueOption{mode: ModeSequential, hasMode: true}
}

// NoSync marks the message as requiring no synchronization: it may
// dispatch whenever a worker is free, regardless of other in-flight
// handlers (but never overtaking an active sequential barrier). It must
// not be combined with key options.
func NoSync() EnqueueOption {
	return EnqueueOption{mode: ModeNoSync, hasMode: true}
}

// WithTraceID stamps the message with an explicit trace ID (normally
// from NewTraceID), forcing it into the flight recorder regardless of
// the sampling rate — provided the admitting queue was built WithTrace.
// The cluster tier uses this to carry one trace ID across nodes: the
// origin samples, every downstream queue records under the stamped ID.
// id 0 is ignored (the sampler decides, the default).
func WithTraceID(id uint64) EnqueueOption {
	return EnqueueOption{traceID: id}
}

// Barge marks the message as an out-of-band key acquisition: it dispatches
// as soon as every key in its set is free of in-flight holders, bypassing
// the claim-queue order that serializes keyed entries in enqueue order
// (see ModeBarge). It must be combined with WithKeys. Intended for sparse
// control traffic — distributed claim acquisition — not data paths: a
// sustained barge stream can delay ordinary keyed entries on its keys.
func Barge() EnqueueOption {
	return EnqueueOption{mode: ModeBarge, hasMode: true}
}

// buildMessage assembles a Message from enqueue options and validates the
// combination.
// NewMessage assembles and validates a Message from the options Enqueue
// accepts, without admitting it. It is the symmetric counterpart of
// Enqueue for callers that hold the message before choosing a queue —
// or admit it elsewhere entirely: q.EnqueueMessage(m) after a successful
// NewMessage(h, opts...) is exactly q.Enqueue(h, opts...). Relative
// scheduling options (WithDelay, WithTTL) are resolved against the
// scheduling clock here, at build time.
func NewMessage(handler func(data any), opts ...EnqueueOption) (Message, error) {
	return buildMessage(handler, opts)
}

func buildMessage(handler func(data any), opts []EnqueueOption) (Message, error) {
	m := Message{Mode: ModeKeyed, Handler: handler}
	// Fetched lazily for the relative scheduling options — through the
	// scheduling clock, not time.Now(): an independent wall-clock sample
	// here would let WithDelay/WithTTL instants drift from the clock the
	// shard timers compare against.
	var now time.Time
	for _, o := range opts {
		if o.hasMode {
			if m.Mode != ModeKeyed && m.Mode != o.mode {
				return Message{}, errConflictingModes
			}
			m.Mode = o.mode
		}
		switch o.keyKind {
		case 1:
			m.Keys = append(m.Keys, o.key)
		case 2:
			m.Keys = append(m.Keys, o.keys...)
		}
		if o.hasData {
			m.Data = o.data
		}
		if o.batch != nil {
			m.Batch = o.batch
		}
		if o.hasPrio {
			m.Priority = o.prio
		}
		if o.hasDelay {
			if now.IsZero() {
				now = schedNow()
			}
			m.NotBefore = now.Add(o.delay)
		}
		if o.hasNotBefore {
			m.NotBefore = o.notBefore
		}
		if o.hasTTL {
			if now.IsZero() {
				now = schedNow()
			}
			m.Deadline = now.Add(o.ttl)
		}
		if o.hasDeadline {
			m.Deadline = o.deadline
		}
		if o.traceID != 0 {
			m.TraceID = o.traceID
		}
	}
	if err := checkMessage(&m); err != nil {
		return Message{}, err
	}
	return m, nil
}
