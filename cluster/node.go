package cluster

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pdq"
)

// nopHandler is the handler carried by claim entries. It never runs: the
// worker loop intercepts claim entries after dequeue and parks them (the
// manual Entry lifecycle — keys held from dispatch until an explicit
// Complete) instead of calling Run.
func nopHandler(any) {}

// localClaim is the payload of a claim entry holding one of a local
// spanning op's home-owned key groups.
type localClaim struct{ op *spanOp }

// remoteClaim is the payload of a claim entry held on behalf of a
// spanning op homed at another node.
type remoteClaim struct {
	home  int
	op    uint64
	group int
}

// claimKey identifies the parked claims of one remote op at an owner.
type claimKey struct {
	home int
	op   uint64
}

// claimGroup is a run of a spanning op's keys, consecutive in global key
// hash order, that share one owner and are therefore acquired atomically.
type claimGroup struct {
	owner int
	keys  []pdq.Key
}

// spanOp is the home-side state machine of an entry whose key set spans
// owners. Groups are acquired strictly in ascending global hash order —
// every spanning op everywhere acquires in the same total key order, so
// claim waits can never form a cycle (an op only ever waits for keys
// hashing strictly above everything it already holds).
type spanOp struct {
	id     uint64
	origin int
	name   string
	data   any
	trace  uint64    // lifecycle trace ID riding the op (0 = untraced)
	keys   []pdq.Key // deduped, global hash order
	groups []claimGroup
	idx    int          // next group to acquire
	local  []*pdq.Entry // parked claim entries for home-owned groups
}

// txPeer is the sender half of the reliable session to one peer.
type txPeer struct {
	nextSeq uint64
	unacked map[uint64]unackedMsg
}

type unackedMsg struct {
	m   WireMsg
	at  int64         // last transmission, in retransmission-clock nanos (clock.go)
	rto time.Duration // current retransmit interval, doubled per resend
}

// rxPeer is the receiver half: in-order delivery with a reorder/dedup
// window. next is the lowest sequence not yet processed; anything below it
// is a duplicate, anything above is buffered until the gap fills.
type rxPeer struct {
	next     uint64
	buffered map[uint64]WireMsg
}

// node is one cluster member: a node-local pdq.Queue, its worker
// goroutines, the session state to every peer, and the claim tables.
type node struct {
	c  *Cluster
	id int
	q  *pdq.Queue

	mu     sync.Mutex
	tx     []txPeer
	rx     []rxPeer
	ops    map[uint64]*spanOp
	nextOp uint64
	parked map[claimKey][]*pdq.Entry

	local        atomic.Uint64 // admitted straight into the local queue
	forwarded    atomic.Uint64 // ops sent whole to a remote home
	spanning     atomic.Uint64 // spanning ops homed here
	remoteKeys   atomic.Uint64 // keys claimed on non-home owners (home side)
	claimsHeld   atomic.Uint64 // claim groups parked here for remote homes
	msgsSent     atomic.Uint64 // first transmissions of sequenced messages
	redelivered  atomic.Uint64 // retransmissions of unacked messages
	dupesDropped atomic.Uint64 // received duplicates discarded by the window
	executed     atomic.Uint64 // user handler completions
	deadLettered atomic.Uint64 // terminal failures (queue + spanning)
}

// init wires the node's queue and session state. The queue composes the
// cluster failure policy after any caller-supplied options, so retry and
// dead-letter accounting stay authoritative.
func (n *node) init(c *Cluster, id, nodes int) {
	n.c = c
	n.id = id
	qopts := append(append([]pdq.Option(nil), c.cfg.qopts...),
		pdq.WithRetry(c.cfg.retry),
		pdq.WithDeadLetter(n.onQueueDeadLetter),
		// Label trace events with the node identity so merged snapshots
		// (Cluster.TraceSnapshot) attribute every event to its recorder.
		// Inert unless WithQueueOptions enabled pdq.WithTrace.
		pdq.WithTraceNode(id))
	n.q = pdq.New(qopts...)
	n.tx = make([]txPeer, nodes)
	n.rx = make([]rxPeer, nodes)
	for i := range n.tx {
		n.tx[i].unacked = make(map[uint64]unackedMsg)
		n.rx[i].next = 1
		n.rx[i].buffered = make(map[uint64]WireMsg)
	}
	n.ops = make(map[uint64]*spanOp)
	n.parked = make(map[claimKey][]*pdq.Entry)
}

// route admits a logical message at its origin node: straight into the
// local queue when this node owns every key, forwarded whole to the owner
// or home otherwise.
func (n *node) route(name string, data any, keys []pdq.Key) error {
	if len(keys) == 0 {
		n.local.Add(1)
		return n.enqueueLocal(name, data, nil, 0)
	}
	sorted := sortKeys(keys)
	home, spans := n.c.homeOf(sorted)
	if !spans && home == n.id {
		n.local.Add(1)
		return n.enqueueLocal(name, data, sorted, 0)
	}
	if home == n.id {
		// Spanning op homed here: start the acquisition directly. The
		// origin samples, so the trace starts at the node the user called.
		n.mu.Lock()
		n.startSpanLocked(n.id, name, data, sorted, n.q.TraceSampleID())
		n.mu.Unlock()
		return nil
	}
	n.forwarded.Add(1)
	// Sample before the message leaves: the forward hop is the trace's
	// first event, and the home node records the rest under the same ID.
	trace := n.q.TraceSampleID()
	n.q.RecordTraceEvent(trace, pdq.TraceForward, 0, int64(home))
	n.mu.Lock()
	n.sendSeqLocked(home, WireMsg{
		Kind: kindEnqueue, Origin: n.id, Handler: name, Keys: sorted, Data: data, TraceID: trace,
	})
	n.mu.Unlock()
	return nil
}

// enqueueLocal admits a message into this node's queue under its full key
// set. The handler wrapper counts successful executions cluster-side.
func (n *node) enqueueLocal(name string, data any, keys []pdq.Key, trace uint64) error {
	h := n.c.handler(name)
	if h == nil {
		return fmt.Errorf("%w: %q", ErrUnknownHandler, name)
	}
	// WithTraceID(0) is inert, so the local queue's own sampler decides
	// for origin-local messages while forwarded ones keep their ID.
	return n.q.Enqueue(func(d any) {
		h(d)
		n.executed.Add(1)
	}, pdq.WithKeys(keys...), pdq.WithData(data), pdq.WithTraceID(trace))
}

// startSpanLocked builds and starts the state machine for a spanning op
// homed at this node. Caller holds n.mu.
func (n *node) startSpanLocked(origin int, name string, data any, sorted []pdq.Key, trace uint64) {
	n.spanning.Add(1)
	groups := groupByOwner(n.c.ring, sorted)
	for _, g := range groups {
		if g.owner != n.id {
			n.remoteKeys.Add(uint64(len(g.keys)))
		}
	}
	n.nextOp++
	op := &spanOp{
		id: n.nextOp, origin: origin, name: name, data: data, trace: trace,
		keys: sorted, groups: groups,
	}
	n.q.RecordTraceEvent(trace, pdq.TraceSpanStart, op.id, int64(len(groups)))
	n.ops[op.id] = op
	n.advanceLocked(op)
}

// advanceLocked acquires the op's next claim group: home-owned groups are
// claim entries in the local queue (parked by the worker loop when they
// dispatch), remote groups are kindClaim messages (advanced by the grant).
// When every group is held, the op's execution rides a NoSync trampoline
// entry so a pool worker — not the session goroutine — runs the handler.
func (n *node) advanceLocked(op *spanOp) {
	if op.idx < len(op.groups) {
		g := op.groups[op.idx]
		if g.owner == n.id {
			// The claim entry carries the op's trace ID, so its Barge
			// lifecycle in the local queue joins the op's trace.
			if err := n.q.Enqueue(nopHandler, pdq.Barge(),
				pdq.WithKeys(g.keys...), pdq.WithData(&localClaim{op: op}),
				pdq.WithTraceID(op.trace)); err != nil {
				n.failSpanLocked(op, err)
			}
			return
		}
		n.q.RecordTraceEvent(op.trace, pdq.TraceClaimSend, op.id, int64(g.owner))
		n.sendSeqLocked(g.owner, WireMsg{Kind: kindClaim, Op: op.id, Group: op.idx, Keys: g.keys, TraceID: op.trace})
		return
	}
	if err := n.q.Enqueue(func(any) { n.execSpan(op) }, pdq.NoSync(),
		pdq.WithTraceID(op.trace)); err != nil {
		n.failSpanLocked(op, err)
	}
}

// failSpanLocked dead-letters a spanning op that could not finish
// acquiring (queue closed or full mid-acquisition) and frees whatever it
// already holds. Caller holds n.mu.
func (n *node) failSpanLocked(op *spanOp, err error) {
	delete(n.ops, op.id)
	n.deadLetterSpan(op, err)
	n.releaseSpanLocked(op)
}

// execSpan runs a fully-acquired spanning op on a pool worker: the user
// handler guarded like pdq.Run guards one, with the cluster's retry
// budget applied as immediate re-execution (the op already holds every
// key, so re-queueing could only deadlock against its own claims), then
// release of all claim groups.
func (n *node) execSpan(op *spanOp) {
	h := n.c.handler(op.name)
	var err error
	if h == nil {
		err = fmt.Errorf("%w: %q", ErrUnknownHandler, op.name)
	} else {
		for attempt := 0; ; attempt++ {
			if err = runGuarded(h, op.data); err == nil {
				n.executed.Add(1)
				break
			}
			if attempt >= n.c.cfg.retry {
				break
			}
		}
	}
	if err != nil {
		n.deadLetterSpan(op, err)
	}
	n.mu.Lock()
	delete(n.ops, op.id)
	n.releaseSpanLocked(op)
	n.mu.Unlock()
}

// releaseSpanLocked completes the op's parked local claim entries and
// sends one kindRelease per distinct remote owner holding claims for it.
// Caller holds n.mu.
func (n *node) releaseSpanLocked(op *spanOp) {
	for _, e := range op.local {
		n.q.Complete(e)
	}
	op.local = nil
	released := make(map[int]bool, 2)
	for i := 0; i < op.idx && i < len(op.groups); i++ {
		g := op.groups[i]
		if g.owner == n.id || released[g.owner] {
			continue
		}
		released[g.owner] = true
		n.q.RecordTraceEvent(op.trace, pdq.TraceReleaseSend, op.id, int64(g.owner))
		n.sendSeqLocked(g.owner, WireMsg{Kind: kindRelease, Op: op.id, TraceID: op.trace})
	}
}

// runGuarded executes a user handler with the panic containment pdq.Run
// applies, reporting the panic as a *pdq.PanicError.
func runGuarded(h func(any), data any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &pdq.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	h(data)
	return nil
}

// serve is one worker goroutine: ordinary entries run through the queue's
// guarded lifecycle, claim entries are parked — their keys stay held until
// the owning op completes and releases them.
func (n *node) serve(ctx context.Context) {
	for {
		e, err := n.q.DequeueContext(ctx)
		if err != nil {
			return // cancelled, or closed and drained
		}
		switch d := e.Message().Data.(type) {
		case *localClaim:
			n.mu.Lock()
			d.op.local = append(d.op.local, e)
			d.op.idx++
			n.advanceLocked(d.op)
			n.mu.Unlock()
		case *remoteClaim:
			n.mu.Lock()
			ck := claimKey{home: d.home, op: d.op}
			n.parked[ck] = append(n.parked[ck], e)
			n.claimsHeld.Add(1)
			// The grant inherits the claim entry's trace ID (stamped at
			// kindClaim admission), closing the claim → grant hop pair.
			n.sendSeqLocked(d.home, WireMsg{Kind: kindGrant, Op: d.op, Group: d.group,
				TraceID: e.Message().TraceID})
			n.mu.Unlock()
		default:
			n.q.Run(e)
		}
	}
}

// sendSeqLocked transmits m on the session to peer `to`: the sequence
// number is assigned and the message recorded unacked in the same locked
// region as the transport send, so per-pair send order always matches
// sequence order. Caller holds n.mu.
func (n *node) sendSeqLocked(to int, m WireMsg) {
	t := &n.tx[to]
	t.nextSeq++
	m.Seq = t.nextSeq
	t.unacked[m.Seq] = unackedMsg{m: m, at: nowNanos(), rto: n.c.cfg.rto}
	n.msgsSent.Add(1)
	n.c.tr.Send(n.id, to, m)
}

// recv is the node's transport receive callback. Acks retire unacked
// state; sequenced messages pass through the per-sender reorder/dedup
// window and are processed strictly in sequence order.
func (n *node) recv(from int, m WireMsg) {
	if m.Kind == kindAck {
		n.mu.Lock()
		delete(n.tx[from].unacked, m.Ack)
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	r := &n.rx[from]
	if _, dup := r.buffered[m.Seq]; m.Seq < r.next || dup {
		// Already processed or already buffered: a transport duplicate or a
		// retransmission that crossed our ack. Drop it, but re-ack — the
		// sender is retransmitting precisely because an ack was lost.
		n.dupesDropped.Add(1)
		n.ackLocked(from, m.Seq)
		n.mu.Unlock()
		return
	}
	r.buffered[m.Seq] = m
	n.ackLocked(from, m.Seq)
	for {
		mm, ok := r.buffered[r.next]
		if !ok {
			break
		}
		delete(r.buffered, r.next)
		r.next++
		n.processLocked(from, mm)
	}
	n.mu.Unlock()
}

// ackLocked acknowledges one received sequence. Acks ride outside the
// sequenced stream and are never retransmitted; losing one just makes the
// sender retransmit the data message, which is re-acked above.
func (n *node) ackLocked(from int, seq uint64) {
	n.c.tr.Send(n.id, from, WireMsg{Kind: kindAck, Ack: seq})
}

// processLocked handles one in-order sequenced message. Caller holds
// n.mu; everything here is quick and non-blocking (queue admissions,
// claim bookkeeping, transport sends).
func (n *node) processLocked(from int, m WireMsg) {
	switch m.Kind {
	case kindEnqueue:
		n.q.RecordTraceEvent(m.TraceID, pdq.TraceRecv, m.Seq, int64(from))
		home, spans := n.c.homeOf(m.Keys)
		if spans && home == n.id {
			n.startSpanLocked(m.Origin, m.Handler, m.Data, m.Keys, m.TraceID)
			return
		}
		// Wholly owned here (the sender routed it; re-derived for safety).
		if err := n.enqueueLocal(m.Handler, m.Data, m.Keys, m.TraceID); err != nil {
			n.deadLettered.Add(1)
			n.c.deadLetter(n.id, pdq.Message{Keys: m.Keys, Data: m.Data}, err)
		}
	case kindClaim:
		n.q.RecordTraceEvent(m.TraceID, pdq.TraceRecv, m.Seq, int64(from))
		if err := n.q.Enqueue(nopHandler, pdq.Barge(), pdq.WithKeys(m.Keys...),
			pdq.WithData(&remoteClaim{home: from, op: m.Op, group: m.Group}),
			pdq.WithTraceID(m.TraceID)); err != nil {
			// Queue closed or full: the claim can never be granted. The home
			// op stalls until the cluster is torn down; record the failure.
			n.deadLettered.Add(1)
			n.c.deadLetter(n.id, pdq.Message{Keys: m.Keys}, err)
		}
	case kindGrant:
		n.q.RecordTraceEvent(m.TraceID, pdq.TraceGrant, m.Seq, int64(from))
		op := n.ops[m.Op]
		if op == nil || op.idx != m.Group {
			return // stale grant for an op already failed/finished
		}
		op.idx++
		n.advanceLocked(op)
	case kindRelease:
		n.q.RecordTraceEvent(m.TraceID, pdq.TraceRecv, m.Seq, int64(from))
		ck := claimKey{home: from, op: m.Op}
		for _, e := range n.parked[ck] {
			n.q.Complete(e)
		}
		delete(n.parked, ck)
	}
}

// retransmit drives the at-least-once delivery loop: every unacked
// sequenced message older than its current retransmit interval is sent
// again, until its ack arrives. The interval starts at the configured
// timeout and doubles per resend (capped): when delivery is merely slow
// rather than lossy — a congested receiver, a simulated network paying
// per-message latency — fixed-interval resending of the whole backlog
// adds traffic that slows delivery further, and the session spirals into
// a retransmission storm. Backoff bounds the resends per message at
// log(latency/rto) and breaks the feedback loop; a genuinely lost
// message still repairs at the base timeout on its first retry.
func (n *node) retransmit(ctx context.Context, rto time.Duration) {
	tick := time.NewTicker(rto / 2)
	defer tick.Stop()
	maxRTO := 64 * rto
	if maxRTO > time.Second {
		maxRTO = time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		now := nowNanos()
		n.mu.Lock()
		for to := range n.tx {
			for seq, u := range n.tx[to].unacked {
				if now-u.at >= int64(u.rto) {
					u.at = now
					if u.rto < maxRTO {
						u.rto *= 2
					}
					n.tx[to].unacked[seq] = u
					n.redelivered.Add(1)
					n.q.RecordTraceEvent(u.m.TraceID, pdq.TraceRetransmit, u.m.Seq, int64(to))
					n.c.tr.Send(n.id, to, u.m)
				}
			}
		}
		n.mu.Unlock()
	}
}

// quietLocked reports that the node holds no pending work: no unacked or
// buffered session traffic, no spanning ops or parked claims, and an idle
// queue. Caller holds n.mu.
func (n *node) quietLocked() bool {
	for i := range n.tx {
		if len(n.tx[i].unacked) > 0 {
			return false
		}
	}
	for i := range n.rx {
		if len(n.rx[i].buffered) > 0 {
			return false
		}
	}
	return len(n.ops) == 0 && len(n.parked) == 0 &&
		n.q.Len() == 0 && n.q.InFlight() == 0
}

// onQueueDeadLetter is the pdq dead-letter hook installed on the node's
// queue: count, then delegate to the cluster policy.
func (n *node) onQueueDeadLetter(m pdq.Message, err error) {
	n.deadLettered.Add(1)
	n.c.deadLetter(n.id, m, err)
}

// deadLetterSpan routes a terminally failed spanning op to the cluster
// dead-letter policy as a synthesized message carrying its key set and
// payload.
func (n *node) deadLetterSpan(op *spanOp, err error) {
	n.deadLettered.Add(1)
	n.c.deadLetter(n.id, pdq.Message{Keys: op.keys, Data: op.data}, err)
}

// logDeadLetter is the default cluster dead-letter policy.
func logDeadLetter(node int, m pdq.Message, err error) {
	log.Printf("cluster: node %d dead-letter entry (keys=%v): %v", node, m.Keys, err)
}
