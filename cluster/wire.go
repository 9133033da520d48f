package cluster

import (
	"fmt"

	"pdq"
)

// msgKind discriminates the cluster's wire messages.
type msgKind uint8

const (
	// kindEnqueue carries a whole logical message to the node that will
	// dispatch it (its home). The receiver admits it into its local queue,
	// or starts a spanning-op acquisition when the key set crosses owners.
	kindEnqueue msgKind = iota + 1
	// kindClaim asks a key owner to hold one claim group (a run of keys in
	// global hash order) on behalf of a spanning op at another node.
	kindClaim
	// kindGrant answers a claim: the group's keys are now held (the claim
	// entry dispatched at the owner) and stay held until kindRelease.
	kindGrant
	// kindRelease frees every claim group an owner holds for an op.
	kindRelease
	// kindAck is a standalone cumulative ack, sent only when no sequenced
	// message going that way has carried it in time. Acks are unsequenced
	// and never retransmitted: the next one, piggybacked or not, covers it.
	kindAck
)

// String names the message kind for diagnostics.
func (k msgKind) String() string {
	switch k {
	case kindEnqueue:
		return "enqueue"
	case kindClaim:
		return "claim"
	case kindGrant:
		return "grant"
	case kindRelease:
		return "release"
	case kindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// WireMsg is the unit a Transport moves between nodes. It is a flat
// in-process value (payloads are passed by reference, never serialized);
// a Transport must deliver it unmodified but is free to drop, duplicate,
// delay, or reorder deliveries — the cluster's session layer rebuilds an
// exactly-once, in-order stream per (sender, receiver) pair on top.
type WireMsg struct {
	Kind msgKind

	// Seq is the per-(sender, receiver) session sequence number, assigned
	// from 1 in send order. kindAck rides outside the sequenced stream: its
	// Seq is 0 or, behind a gap, the first sequence held beyond the hole.
	Seq uint64
	// Ack is cumulative and rides on every message: its sender has processed
	// every sequence up to Ack from the recipient, in order, exactly once.
	Ack uint64

	// Op identifies a spanning op, unique within its home node
	// (kindClaim, kindGrant, kindRelease). Claims from different homes are
	// disambiguated by the sender, so ids need not be globally unique.
	Op uint64
	// Group is the claim-group index within the op (kindClaim, kindGrant).
	Group int

	// Origin is the node whose Enqueue call created the logical message
	// (kindEnqueue; carried for diagnostics and ordering tests).
	Origin int
	// Handler names the registered handler to run (kindEnqueue).
	Handler string
	// Keys is the message's synchronization key set (kindEnqueue), or the
	// claim group's keys (kindClaim).
	Keys []pdq.Key
	// Data is the message payload (kindEnqueue).
	Data any

	// TraceID carries the lifecycle-trace identity of the logical message
	// or spanning op this wire message serves (0 = untraced). Propagating
	// it on every hop — forwards, claims, grants, releases, and their
	// retransmissions — lets the flight recorders of all involved nodes
	// correlate into one cross-node trace (see pdq.WithTrace).
	TraceID uint64
}

// Transport moves wire messages between the cluster's nodes. Delivery is
// best-effort: an implementation may drop, duplicate, delay, or reorder
// messages (the in-process ChanTransport does all four on demand), and the
// cluster's session layer is responsible for reliability on top. The
// contract an implementation must keep:
//
//   - Send must be safe for concurrent use and safe to call from inside a
//     receive callback (a received message frequently triggers an ack or a
//     grant on the same stack).
//   - Receive callbacks must be invoked without any Transport-internal
//     lock held that Send also takes on that path.
//   - Bind must be called for every node before traffic reaches it;
//     Cluster construction does this before any message flows.
type Transport interface {
	// Send delivers m from node `from` to node `to`, best-effort.
	Send(from, to int, m WireMsg)
	// Bind installs the receive callback for node id.
	Bind(node int, recv func(from int, m WireMsg))
	// Close stops delivery. Messages still in flight may be dropped.
	Close()
}
