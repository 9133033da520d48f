// Package cluster is the distributed dispatch tier of pdq: N node-local
// parallel dispatch queues joined by a message transport, scaling the
// paper's in-queue synchronization model from the processors of one node
// to the nodes of a cluster — the setting the PDQ paper actually targets
// (fine-grain communication protocols on a DSM cluster).
//
// # Key ownership
//
// Every synchronization key has a home node, assigned by a consistent-hash
// ring with virtual nodes (64 per node by default), so ownership is
// deterministic, uniform, and computable everywhere without coordination.
// A message whose key set is wholly owned by one node is dispatched on
// that node's queue: enqueued directly when the owner is the origin,
// forwarded whole otherwise. All dispatches touching a key therefore
// execute at the key's owner, and the owner's pdq.Queue provides mutual
// exclusion and per-key FIFO exactly as on a single node.
//
// # Spanning entries and remote claims
//
// A message whose key set spans owners is homed on the owner of its
// lowest-hashing key, and the remaining keys are forwarded as remote
// claims — the cross-shard claim idea of the sharded core, one level up.
// The home sorts the key set in global hash order, groups consecutive
// same-owner runs, and acquires the groups strictly in that order: a
// home-owned group is a claim entry in the home's own queue (its keys held
// from dispatch until release), a remote group is a kindClaim message the
// owner answers with a grant once the claim entry heads its local claim
// queues. Because every spanning op everywhere acquires in the same global
// key order, an op only ever waits for keys hashing above everything it
// holds, so distributed claim waits cannot form a cycle and dispatch never
// deadlocks. When every group is held the handler runs at the home under
// full mutual exclusion, then all claims release.
//
// Ordering across nodes is per key at the owner: dispatches on one key
// serialize in the order the owner admitted them. Messages enqueued on the
// same origin node that route identically (same owner or same home) keep
// their enqueue order end to end, because sessions are FIFO; a single-owner
// message and a spanning message sharing a key are ordered by arrival at
// that key's owner instead — the linearization point every distributed
// queue ultimately has.
//
// # Delivery guarantee: at-least-once transport, effect-once dispatch
//
// The Transport may drop, duplicate, delay, or reorder. On top of it every
// node pair runs a sliding-window session: sequenced messages; a cumulative
// ack ("everything up to n, processed in order") riding on every message
// going the other way, or sent alone every 32nd receipt, on a short tick,
// and at once on a duplicate or a gap; retransmission of the oldest unacked
// message on a timeout that tracks the measured round trip (at-least-once);
// and a receiver that processes in-order arrivals directly, holds what
// arrives beyond a hole, and drops what it has seen. A lost message is
// retransmitted until acked; a lost ack is covered by the next one, or
// causes a retransmission the receiver drops and re-acks — so a forwarded
// entry is admitted exactly once, and a redelivery can never double-execute
// a handler or wedge a key. Handler failures compose with the node queues'
// pdq lifecycle: WithRetry re-runs, WithDeadLetter receives terminal
// failures (a spanning op retries in place, holding its claims, for the
// same budget). There is no node-failure model: membership is fixed and a
// node's memory is as durable as the process — the tier distributes
// dispatch, not persistence.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdq"
)

// Errors returned by cluster operations.
var (
	ErrClosed         = errors.New("cluster: closed")
	ErrUnknownHandler = errors.New("cluster: handler not registered")
	ErrBadNode        = errors.New("cluster: node out of range")
	ErrDupHandler     = errors.New("cluster: handler already registered")
)

// Option configures a Cluster at construction.
type Option func(*config)

type config struct {
	workers   int
	vnodes    int
	retry     int
	rto       time.Duration // initial retransmit timeout and its floor
	maxRTO    time.Duration // backoff ceiling: 64x rto, at most 1s
	tick      time.Duration // session tick, rto/4: bounds how long an ack is delayed
	dead      func(node int, m pdq.Message, err error)
	qopts     []pdq.Option
	transport Transport
}

// WithTransport joins the nodes with t instead of the default in-process
// ChanTransport. The cluster takes ownership: Close closes t.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithWorkers sets the dispatch worker goroutines per node (default 2,
// minimum 1). Workers intercept claim entries and run everything else
// through the queue's guarded lifecycle.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithVirtualNodes sets the virtual points each node contributes to the
// ownership ring (default DefaultVirtualNodes; minimum 1). More points
// smooth the ownership split at the cost of a larger (still tiny) ring.
func WithVirtualNodes(v int) Option {
	return func(c *config) {
		if v < 1 {
			v = 1
		}
		c.vnodes = v
	}
}

// WithRetry grants every dispatched entry a budget of n failed attempts,
// applied as pdq.WithRetry on each node queue and as in-place re-execution
// for spanning ops (which hold their claims across attempts). Default 0:
// a failure dead-letters immediately.
func WithRetry(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.retry = n
	}
}

// WithDeadLetter installs the terminal failure hook, receiving the
// dispatching node, the failed message, and its error. The default logs
// via the standard log package.
func WithDeadLetter(fn func(node int, m pdq.Message, err error)) Option {
	return func(c *config) { c.dead = fn }
}

// WithQueueOptions appends construction options for every node-local
// pdq.Queue (shards, search window, capacity, coalescing...). The
// cluster's own retry and dead-letter policy is applied after these, so
// use WithRetry/WithDeadLetter at the cluster level instead.
func WithQueueOptions(opts ...pdq.Option) Option {
	return func(c *config) { c.qopts = append(c.qopts, opts...) }
}

// WithRetransmitTimeout sets the initial value and the floor of the
// timeout after which a session retransmits its oldest unacked message
// (default 10ms; minimum 1ms). Above the floor the timeout follows the
// measured round trip, and it doubles on every resend (capped at 64x, at
// most 1s) until an ack arrives, so a slow-but-reliable path backs off
// instead of compounding its own congestion.
func WithRetransmitTimeout(d time.Duration) Option {
	return func(c *config) {
		if d < time.Millisecond {
			d = time.Millisecond
		}
		c.rto = d
	}
}

// Cluster is a distributed parallel dispatch queue over a fixed set of
// nodes. All methods are safe for concurrent use.
type Cluster struct {
	cfg   config
	ring  *ring
	tr    Transport
	nodes []*node

	hmu      sync.RWMutex
	handlers map[string]handler

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds a cluster of n nodes shaped by opts and starts its workers.
// Handlers must be registered (Register) before messages naming them are
// enqueued.
func New(n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	if n > 64 {
		// proto.BitSet and the pdq shard mask stop at 64; the paper's
		// clusters stop at 16. Keep the bound explicit.
		return nil, fmt.Errorf("cluster: at most 64 nodes, got %d", n)
	}
	cfg := config{workers: 2, vnodes: DefaultVirtualNodes, rto: 10 * time.Millisecond}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.maxRTO = max(cfg.rto, min(64*cfg.rto, time.Second))
	cfg.tick = cfg.rto / 4
	if cfg.transport == nil {
		cfg.transport = NewChanTransport(n)
	}
	if cfg.dead == nil {
		cfg.dead = logDeadLetter
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     newRing(n, cfg.vnodes),
		tr:       cfg.transport,
		nodes:    make([]*node, n),
		handlers: make(map[string]handler),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := range c.nodes {
		nd := &node{}
		nd.init(c, i, n)
		c.nodes[i] = nd
		c.tr.Bind(i, nd.recv)
	}
	// Workers and session ticks start only after every node is bound,
	// so no traffic can reach an unbound receiver.
	for _, nd := range c.nodes {
		for w := 0; w < cfg.workers; w++ {
			c.wg.Add(1)
			go func(nd *node) {
				defer c.wg.Done()
				nd.serve(ctx)
			}(nd)
		}
		c.wg.Add(1)
		go func(nd *node) {
			defer c.wg.Done()
			nd.sessions(ctx)
		}(nd)
	}
	return c, nil
}

// Register installs a named handler on every node. Handlers cross the wire
// by name (functions cannot), so the same registry serves all nodes; a
// name can be registered once.
func (c *Cluster) Register(name string, h func(data any)) error {
	if h == nil {
		return pdq.ErrNilHandler
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	if _, dup := c.handlers[name]; dup {
		return fmt.Errorf("%w: %q", ErrDupHandler, name)
	}
	counted := make(handler, len(c.nodes))
	for i, n := range c.nodes {
		executed := &n.executed
		counted[i] = func(d any) {
			h(d)
			executed.Add(1)
		}
	}
	c.handlers[name] = counted
	return nil
}

// handler is a registered handler as each node runs it: handler[i] calls
// the user's function, then counts the execution at node i. Built once at
// Register, so admitting a message allocates no closure.
type handler []func(any)

// handler resolves a registered handler.
func (c *Cluster) handler(name string) (handler, error) {
	c.hmu.RLock()
	h := c.handlers[name]
	c.hmu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHandler, name)
	}
	return h, nil
}

// Enqueue admits a logical message at node origin: handler (a Register
// name) will run with data under mutual exclusion and per-key FIFO on
// every key in keys, wherever those keys are owned. With no keys the
// message synchronizes with nothing and dispatches on the origin's own
// queue. Enqueue returns once the message is admitted or forwarded; the
// sessions then guarantee it dispatches exactly once.
func (c *Cluster) Enqueue(origin int, handler string, data any, keys ...pdq.Key) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if origin < 0 || origin >= len(c.nodes) {
		return fmt.Errorf("%w: %d", ErrBadNode, origin)
	}
	h, err := c.handler(handler)
	if err != nil {
		return err
	}
	return c.nodes[origin].route(handler, h, data, keys)
}

// Owner returns the node owning key k on the ownership ring.
func (c *Cluster) Owner(k pdq.Key) int { return c.ring.owner(k) }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Queue exposes node i's underlying pdq.Queue for inspection (stats,
// lengths). Enqueue through the cluster, not the queue, or key ownership
// is bypassed.
func (c *Cluster) Queue(i int) *pdq.Queue { return c.nodes[i].q }

// TraceSnapshot drains and merges the lifecycle trace events of every
// node's queue into one stream, sorted by timestamp. Every in-process
// queue stamps events on the same scheduling-clock epoch and node
// queues label events with their node id (pdq.WithTraceNode), so the
// merged stream orders one cross-node trace end to end. Consuming, like
// pdq.Queue.TraceSnapshot; empty unless the cluster was built with
// WithQueueOptions(pdq.WithTrace(rate)).
func (c *Cluster) TraceSnapshot() []pdq.TraceEvent {
	var evs []pdq.TraceEvent
	for i := range c.nodes {
		evs = append(evs, c.nodes[i].q.TraceSnapshot()...)
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		return evs[a].Node < evs[b].Node
	})
	return evs
}

// deadLetter invokes the cluster dead-letter policy.
func (c *Cluster) deadLetter(node int, m pdq.Message, err error) {
	c.cfg.dead(node, m, err)
}

// sortKeys copies keys into global hash order, dropping duplicates: the
// canonical acquisition order every node agrees on. Key sets are one or
// two keys in practice; the generic sort insertion-sorts small inputs in
// place, with no reflection swapper and no allocation.
func sortKeys(keys []pdq.Key) []pdq.Key {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b pdq.Key) int {
		return cmp.Or(cmp.Compare(keyHash(a), keyHash(b)), cmp.Compare(a, b))
	})
	return slices.Compact(out)
}

// groupByOwner splits a hash-sorted key set into consecutive same-owner
// runs — the claim groups a spanning op acquires in order. The groups
// alias sorted rather than copy it.
func groupByOwner(r *ring, sorted []pdq.Key) []claimGroup {
	var groups []claimGroup
	for i, k := range sorted {
		o := r.owner(k)
		if n := len(groups); n > 0 && groups[n-1].owner == o {
			g := &groups[n-1]
			g.keys = sorted[i-len(g.keys) : i+1]
			continue
		}
		groups = append(groups, claimGroup{owner: o, keys: sorted[i : i+1]})
	}
	return groups
}

// Quiesce blocks until the cluster holds no pending work: every session
// drained and acked, every spanning op finished, every queue empty and
// idle — or ctx is done. It is meaningful once producers have stopped
// enqueueing. Stray duplicate deliveries may still trickle in afterwards;
// they are dropped without creating work.
func (c *Cluster) Quiesce(ctx context.Context) error {
	var prev uint64
	stable := false
	poll := time.NewTicker(500 * time.Microsecond)
	defer poll.Stop()
	for {
		if c.quietPass() {
			act := c.activity()
			if stable && act == prev {
				return nil
			}
			prev, stable = act, true
		} else {
			stable = false
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-poll.C:
		}
	}
}

// quietPass checks every node's pending state in one sweep.
func (c *Cluster) quietPass() bool {
	for _, n := range c.nodes {
		n.mu.Lock()
		ok := n.quietLocked()
		n.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// activity sums monotonic progress counters; an unchanged sum across two
// quiet sweeps certifies no work slipped between the sweep fronts.
func (c *Cluster) activity() uint64 {
	var a uint64
	for _, n := range c.nodes {
		a += n.msgsSent.Load() + n.dupesDropped.Load() +
			n.executed.Load() + n.deadLettered.Load()
		qs := n.q.Stats()
		a += qs.Enqueued + qs.Dispatched + qs.Completed
	}
	return a
}

// Close stops the cluster: further Enqueues fail with ErrClosed, workers
// and retransmit loops stop, node queues close, and the transport shuts
// down. Close does not wait for pending work — call Quiesce first for a
// clean drain.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, n := range c.nodes {
		n.q.Close()
	}
	c.cancel()
	c.wg.Wait()
	c.tr.Close()
}

// NodeStats is one node's activity snapshot.
type NodeStats struct {
	Node         int       `json:"node"`
	Local        uint64    `json:"local"`         // admitted straight into the local queue
	Forwarded    uint64    `json:"forwarded"`     // ops sent whole to a remote home
	Spanning     uint64    `json:"spanning"`      // spanning ops homed here
	RemoteKeys   uint64    `json:"remote_keys"`   // keys this node's ops claimed remotely
	ClaimsHeld   uint64    `json:"claims_held"`   // claim groups parked here for remote homes
	MsgsSent     uint64    `json:"msgs_sent"`     // first transmissions of sequenced messages
	Redelivered  uint64    `json:"redelivered"`   // timeout retransmissions
	DupesDropped uint64    `json:"dupes_dropped"` // received duplicates discarded
	Executed     uint64    `json:"executed"`      // user handler completions
	DeadLettered uint64    `json:"dead_lettered"` // terminal failures
	Queue        pdq.Stats `json:"queue"`         // the node queue's full counter surface
}

// Stats is the cluster-wide activity snapshot: the node counters summed,
// plus each node's own snapshot. All counters are cumulative since New;
// JSON names are stable for external tooling.
type Stats struct {
	Nodes        int         `json:"nodes"`
	Local        uint64      `json:"local"`
	Forwarded    uint64      `json:"forwarded"`
	Spanning     uint64      `json:"spanning"`
	RemoteKeys   uint64      `json:"remote_keys"`
	ClaimsHeld   uint64      `json:"claims_held"`
	MsgsSent     uint64      `json:"msgs_sent"`
	Redelivered  uint64      `json:"redelivered"`
	DupesDropped uint64      `json:"dupes_dropped"`
	Executed     uint64      `json:"executed"`
	DeadLettered uint64      `json:"dead_lettered"`
	PerNode      []NodeStats `json:"per_node"`
}

// Stats returns the cluster snapshot.
func (c *Cluster) Stats() Stats {
	s := Stats{Nodes: len(c.nodes), PerNode: make([]NodeStats, len(c.nodes))}
	for i, n := range c.nodes {
		ns := NodeStats{
			Node:         i,
			Local:        n.local.Load(),
			Forwarded:    n.forwarded.Load(),
			Spanning:     n.spanning.Load(),
			RemoteKeys:   n.remoteKeys.Load(),
			ClaimsHeld:   n.claimsHeld.Load(),
			MsgsSent:     n.msgsSent.Load(),
			Redelivered:  n.redelivered.Load(),
			DupesDropped: n.dupesDropped.Load(),
			Executed:     n.executed.Load(),
			DeadLettered: n.deadLettered.Load(),
			Queue:        n.q.Stats(),
		}
		s.PerNode[i] = ns
		s.Local += ns.Local
		s.Forwarded += ns.Forwarded
		s.Spanning += ns.Spanning
		s.RemoteKeys += ns.RemoteKeys
		s.ClaimsHeld += ns.ClaimsHeld
		s.MsgsSent += ns.MsgsSent
		s.Redelivered += ns.Redelivered
		s.DupesDropped += ns.DupesDropped
		s.Executed += ns.Executed
		s.DeadLettered += ns.DeadLettered
	}
	return s
}

// String renders the cluster counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf(
		"nodes=%d local=%d forwarded=%d spanning=%d remoteKeys=%d claimsHeld=%d msgs=%d redelivered=%d dupesDropped=%d executed=%d deadLettered=%d",
		s.Nodes, s.Local, s.Forwarded, s.Spanning, s.RemoteKeys, s.ClaimsHeld,
		s.MsgsSent, s.Redelivered, s.DupesDropped, s.Executed, s.DeadLettered)
}
