package cluster

import (
	"context"
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

// txPeer is the sender half of the reliable session to one peer. win holds
// the unacked messages contiguously: win.at(i) carries sequence
// nextSeq-win.len()+1+i, and a cumulative ack pops the front. rto follows
// RFC 6298: max(floor, srtt+4*rttvar), doubled per timeout until progress.
type txPeer struct {
	nextSeq      uint64 // last sequence assigned
	win          window[sentMsg]
	srtt, rttvar time.Duration // seeded with the floor and 0, so rto starts at the floor
	rto          time.Duration
}

type sentMsg struct {
	m      WireMsg
	at     int64 // last transmission, in retransmission-clock nanos (clock.go)
	resent bool  // Karn's rule: its ack yields no RTT sample
}

// rxPeer is the receiver half. next is the lowest sequence not yet
// processed; anything below it is a duplicate. gap is empty while arrivals
// are in order; behind a hole, gap.at(i) is the slot of sequence next+i (a
// zero Kind marks a hole, slot 0 is one) and the last slot is filled. owed
// counts receipts since an ack, piggybacked or not, last left for the peer.
type rxPeer struct {
	next uint64
	gap  window[WireMsg]
	owed int
}

// ackEvery is how many receipts may be owed an ack before a standalone one
// is sent; fewer wait for a message going the other way or for the tick.
const ackEvery = 32

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
		n.tx[i].srtt, n.tx[i].rto = c.cfg.rto, c.cfg.rto
		n.rx[i].next = 1
	}
	n.ops = make(map[uint64]*spanOp)
	n.parked = make(map[claimKey][]*pdq.Entry)
}

// route admits a logical message at its origin node: straight into the
// local queue when this node owns every key, forwarded whole to the owner
// or home otherwise. Owners are resolved once here and, for a forwarded
// multi-key set, once more at the home; a single key cannot span.
func (n *node) route(name string, h handler, data any, keys []pdq.Key) error {
	home := n.id
	var groups []claimGroup
	if len(keys) == 1 {
		home = n.c.ring.owner(keys[0])
	} else if len(keys) > 1 {
		keys = sortKeys(keys)
		groups = groupByOwner(n.c.ring, keys)
		home = groups[0].owner
	}
	if home == n.id {
		if len(groups) <= 1 {
			// Admission copies the key slice; with no trace ID the local
			// queue's own sampler decides.
			n.local.Add(1)
			return n.q.EnqueueMessage(pdq.Message{Handler: h[n.id], Keys: keys, Data: data})
		}
		// Spanning op homed here: start the acquisition directly. The
		// origin samples, so the trace starts at the node the user called.
		n.mu.Lock()
		n.startSpanLocked(n.id, name, data, keys, groups, n.q.TraceSampleID())
		n.mu.Unlock()
		return nil
	}
	if len(keys) == 1 {
		keys = []pdq.Key{keys[0]} // the wire message must own its key slice
	}
	n.forwarded.Add(1)
	// Sample before the message leaves: the forward hop is the trace's
	// first event, and the home node records the rest under the same ID.
	trace := n.q.TraceSampleID()
	n.q.RecordTraceEvent(trace, pdq.TraceForward, 0, int64(home))
	n.mu.Lock()
	n.sendSeqLocked(home, WireMsg{
		Kind: kindEnqueue, Origin: n.id, Handler: name, Keys: keys, Data: data, TraceID: trace,
	})
	n.mu.Unlock()
	return nil
}

// startSpanLocked builds and starts the state machine for a spanning op
// homed at this node. Caller holds n.mu.
func (n *node) startSpanLocked(origin int, name string, data any, sorted []pdq.Key, groups []claimGroup, trace uint64) {
	n.spanning.Add(1)
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
	h, err := n.c.handler(op.name)
	for attempt := 0; h != nil; attempt++ {
		if err = runGuarded(h[n.id], op.data); err == nil || attempt >= n.c.cfg.retry {
			break
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
	released := uint64(1) << n.id // owner mask; New caps the cluster at 64 nodes
	for i := 0; i < op.idx && i < len(op.groups); i++ {
		g := op.groups[i]
		if released&(1<<g.owner) != 0 {
			continue
		}
		released |= 1 << g.owner
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
// number is assigned and the message appended to the unacked window in the
// same locked region as the transport send, so per-pair send order always
// matches sequence order. Caller holds n.mu.
func (n *node) sendSeqLocked(to int, m WireMsg) {
	t := &n.tx[to]
	t.nextSeq++
	m.Seq = t.nextSeq
	n.stampAckLocked(to, &m)
	t.win.push(sentMsg{m: m, at: nowNanos()})
	n.msgsSent.Add(1)
	n.c.tr.Send(n.id, to, m)
}

// stampAckLocked writes the cumulative ack into a message leaving for
// peer: every sequence up to Ack has been processed, in order, once.
func (n *node) stampAckLocked(peer int, m *WireMsg) {
	m.Ack = n.rx[peer].next - 1
	n.rx[peer].owed = 0
}

// ackLocked sends a standalone ack. Acks ride outside the sequenced stream
// and are never retransmitted: the next one, piggybacked or not, covers a
// lost one. Behind a gap it also reports the hole, (Ack, Seq) exclusive.
func (n *node) ackLocked(peer int) {
	m := WireMsg{Kind: kindAck}
	n.stampAckLocked(peer, &m)
	if g := &n.rx[peer].gap; g.len() > 0 {
		i := 1 // slot 0 is the hole at Ack+1; the last slot is filled
		for g.at(i).Kind == 0 {
			i++
		}
		m.Seq = m.Ack + 1 + uint64(i)
	}
	n.c.tr.Send(n.id, peer, m)
}

// ackedLocked retires every message to peer with sequence <= ack and
// returns the highest sequence retired so far. The window's front yields
// the RTT sample unless it was resent; progress clears the backoff.
func (n *node) ackedLocked(peer int, ack uint64, now int64) uint64 {
	t := &n.tx[peer]
	base := t.nextSeq - uint64(t.win.len())
	if ack <= base || ack > t.nextSeq {
		return base // stale, reordered or duplicated
	}
	if h := t.win.at(0); !h.resent {
		r := time.Duration(now - h.at)
		t.rttvar += ((t.srtt - r).Abs() - t.rttvar) / 4
		t.srtt += (r - t.srtt) / 8
	}
	t.win.popFront(int(ack - base))
	t.rto = min(max(n.c.cfg.rto, t.srtt+4*t.rttvar), n.c.cfg.maxRTO)
	return ack
}

// resendLocked retransmits the i-th unacked message to peer, if there is
// one and its last transmission is at least minAge old.
func (n *node) resendLocked(peer, i int, now int64, minAge time.Duration) bool {
	t := &n.tx[peer]
	if i >= t.win.len() || now-t.win.at(i).at < int64(minAge) {
		return false
	}
	h := t.win.at(i)
	h.at, h.resent = now, true
	n.stampAckLocked(peer, &h.m)
	n.redelivered.Add(1)
	n.q.RecordTraceEvent(h.m.TraceID, pdq.TraceRetransmit, h.m.Seq, int64(peer))
	n.c.tr.Send(n.id, peer, h.m)
	return true
}

// recv is the node's transport receive callback. Every message carries the
// sender's cumulative ack, which retires unacked state; sequenced messages
// are processed strictly in order — directly, or behind a gap via rx.gap.
func (n *node) recv(from int, m WireMsg) {
	now := nowNanos()
	n.mu.Lock()
	defer n.mu.Unlock()
	base := n.ackedLocked(from, m.Ack, now)
	if m.Kind == kindAck {
		// A hole report: fill (Ack, Seq) now, not at the timeout — but a
		// message at most once per tick, as every arrival behind the hole
		// reports it again until the repair lands.
		for s := max(m.Ack, base) + 1; s < m.Seq; s++ {
			n.resendLocked(from, int(s-base-1), now, n.c.cfg.tick)
		}
		return
	}
	r := &n.rx[from]
	if i := int(m.Seq) - int(r.next); i != 0 {
		// Out of order. Beyond a hole it is held; below next, or already
		// held, it is a transport duplicate or a retransmission because our
		// ack was lost or late, and is dropped. Either way ack at once: the
		// sender learns what we have and where the hole is.
		for i > 0 && r.gap.len() <= i {
			r.gap.push(WireMsg{})
		}
		if i > 0 && r.gap.at(i).Kind == 0 {
			*r.gap.at(i) = m
		} else {
			n.dupesDropped.Add(1)
		}
		n.ackLocked(from)
		return
	}
	r.next++
	r.owed++
	n.processLocked(from, &m)
	// Filled a hole: deliver what waited behind it, up to the next, and ack.
	filled := r.gap.len() > 0
	for r.gap.len() > 0 {
		r.gap.popFront(1) // the slot of the message just processed
		if r.gap.len() == 0 || r.gap.at(0).Kind == 0 {
			break
		}
		r.next++
		n.processLocked(from, r.gap.at(0))
	}
	if filled || r.owed >= ackEvery {
		n.ackLocked(from)
	}
}

// processLocked handles one in-order sequenced message. Caller holds
// n.mu; everything here is quick and non-blocking (queue admissions,
// claim bookkeeping, transport sends).
func (n *node) processLocked(from int, m *WireMsg) {
	switch m.Kind {
	case kindEnqueue:
		n.q.RecordTraceEvent(m.TraceID, pdq.TraceRecv, m.Seq, int64(from))
		if len(m.Keys) > 1 {
			if groups := groupByOwner(n.c.ring, m.Keys); len(groups) > 1 {
				n.startSpanLocked(m.Origin, m.Handler, m.Data, m.Keys, groups, m.TraceID)
				return
			}
		}
		// Wholly owned here: the origin resolved the owner and routed it.
		h, err := n.c.handler(m.Handler)
		if err == nil {
			err = n.q.EnqueueMessage(pdq.Message{
				Handler: h[n.id], Keys: m.Keys, Data: m.Data, TraceID: m.TraceID})
		}
		if err != nil {
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

// sessions runs the session tick, a quarter of the configured retransmit
// timeout, so a delayed ack is well inside any sender's timeout.
func (n *node) sessions(ctx context.Context) {
	tick := time.NewTicker(n.c.cfg.tick)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		n.mu.Lock()
		n.tickLocked(nowNanos())
		n.mu.Unlock()
	}
}

// tickLocked is one session tick, O(peers) whatever the backlog. It sends
// the acks and hole reports still owed to peers with nothing going their
// way to piggyback on, and drives the at-least-once loop: the front of a
// peer's window is resent once unacked for the peer's timeout. Only the
// front — what arrived behind a hole is held, so filling it moves the
// cumulative ack to the next. The timeout tracks the measured round trip
// and doubles per resend (capped) until progress: when delivery is merely
// slow (a busy receiver, a latency-charging simulated network), resending
// on a fixed interval adds the traffic that slows it further.
func (n *node) tickLocked(now int64) {
	for p := range n.tx {
		if t := &n.tx[p]; n.resendLocked(p, 0, now, t.rto) {
			t.rto = min(2*t.rto, n.c.cfg.maxRTO)
		}
		if r := &n.rx[p]; r.owed > 0 || r.gap.len() > 0 {
			n.ackLocked(p)
		}
	}
}

// quietLocked reports that the node holds no pending work: no unacked or
// buffered session traffic, no spanning ops or parked claims, and an idle
// queue. Caller holds n.mu.
func (n *node) quietLocked() bool {
	for i := range n.tx {
		if n.tx[i].win.len() > 0 || n.rx[i].gap.len() > 0 {
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
