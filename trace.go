// The pdqtrace flight recorder: a sampled, low-overhead lifecycle
// tracer threaded through the dispatch core. A queue built WithTrace
// stamps a fraction of admitted messages with a process-unique trace ID
// and records a typed, timestamped event at every lifecycle edge the
// entry crosses — admission (mutex or intake-ring path), ring drain and
// sequence assignment, claim-queue join, delay maturity, credit
// dispatch, batch harvest, coalescing, handler start/end, completion,
// chain handoff, release/retry/expiry/dead-letter — plus the cluster
// tier's wire hops (forward, claim, grant, release, retransmission; see
// cluster/), which carry the trace ID across nodes so one trace spans
// the whole distributed dispatch.
//
// Events land in per-shard bounded rings with flight-recorder
// semantics: a producer claims a slot with one atomic add and
// overwrites the oldest event when the ring laps, so recording never
// blocks, never allocates, and never applies backpressure to the
// dispatch path. Every slot field is atomic and guarded by a version
// word (odd while a write is in flight, even when published), so a
// snapshot taken concurrently with producers is race-free and simply
// drops the slots it caught mid-overwrite — counted, never silently.
// Timestamps are read exclusively through the package-monotonic
// scheduling clock (nowNanos; see sched.go and the wallclock analyzer),
// so cross-event deltas are immune to wall-clock steps, and — because
// every queue in the process shares one clock epoch — comparable across
// the in-process queues of a cluster.
//
// The disabled path is a single nil check on a pointer loaded once per
// guard site (`q.tr != nil`), false at every site for an untraced
// queue: strictly branch-predictable, costing nothing measurable.
package pdq

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceKind identifies the lifecycle edge a TraceEvent records. Kinds
// marshal to stable snake_case strings in JSON (the JSONL form
// cmd/pdqtrace consumes), not numbers.
type TraceKind uint8

// The lifecycle edges of a traced entry. The core records the first
// fifteen; the cluster tier injects the wire-hop kinds below them via
// RecordTraceEvent.
const (
	TraceEnqueue      TraceKind = iota + 1 // admitted; Arg 0 = mutex path, 1 = intake ring
	TraceRingDrain                         // intake-ring entry drained, sequence number assigned
	TraceClaimJoin                         // joined its keys' claim FIFOs; Arg = key count
	TraceMature                            // delayed entry reached its NotBefore instant
	TraceDispatch                          // credit dispatch from a harvest or handoff; Arg = band
	TraceHarvest                           // taken into a batch harvest; Arg = position in the batch
	TraceCoalesce                          // merged into a representative entry; Arg = run position
	TraceHandlerStart                      // handler invocation began
	TraceHandlerEnd                        // handler invocation returned (normal return only)
	TraceComplete                          // entry completed, key state released
	TraceHandoff                           // claimed by a chain handoff (CompleteNext); Arg = predecessor seq
	TraceRelease                           // entry released on the failure path
	TraceRetry                             // released message re-enqueued; Arg = next attempt number
	TraceExpire                            // expired undispatched at its deadline
	TraceDeadLetter                        // message handed to the dead-letter hook
	TraceForward                           // cluster: message forwarded whole to its home; Arg = peer node
	TraceRecv                              // cluster: sequenced wire message admitted; Arg = peer node
	TraceSpanStart                         // cluster: spanning op homed; Arg = claim group count
	TraceClaimSend                         // cluster: remote claim group requested; Arg = owner node
	TraceGrant                             // cluster: claim grant received; Arg = granting node
	TraceReleaseSend                       // cluster: remote claims released; Arg = owner node
	TraceRetransmit                        // cluster: unacked wire message retransmitted; Arg = peer node
	traceKindEnd
)

// traceKindNames are the stable wire names, indexed by kind.
var traceKindNames = [traceKindEnd]string{
	TraceEnqueue:      "enqueue",
	TraceRingDrain:    "ring_drain",
	TraceClaimJoin:    "claim_join",
	TraceMature:       "mature",
	TraceDispatch:     "dispatch",
	TraceHarvest:      "harvest",
	TraceCoalesce:     "coalesce",
	TraceHandlerStart: "handler_start",
	TraceHandlerEnd:   "handler_end",
	TraceComplete:     "complete",
	TraceHandoff:      "handoff",
	TraceRelease:      "release",
	TraceRetry:        "retry",
	TraceExpire:       "expire",
	TraceDeadLetter:   "dead_letter",
	TraceForward:      "forward",
	TraceRecv:         "recv",
	TraceSpanStart:    "span_start",
	TraceClaimSend:    "claim_send",
	TraceGrant:        "grant",
	TraceReleaseSend:  "release_send",
	TraceRetransmit:   "retransmit",
}

// String returns the kind's stable snake_case name.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) && traceKindNames[k] != "" {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// MarshalJSON renders the kind as its stable name.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a stable kind name back into its TraceKind.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range traceKindNames {
		if name == s {
			*k = TraceKind(i)
			return nil
		}
	}
	return fmt.Errorf("pdq: unknown trace kind %q", s)
}

// TraceEvent is one recorded lifecycle edge of a traced entry. At is
// nanoseconds on the package-monotonic scheduling clock — meaningful
// only relative to other events from the same process, which is exactly
// what per-phase breakdowns need. Node is the WithTraceNode label (0
// unless set), Shard the dispatch shard that recorded the event, Seq
// the entry's enqueue sequence number where one was assigned yet, and
// Arg a kind-specific detail (see the TraceKind constants).
type TraceEvent struct {
	TraceID uint64    `json:"trace_id"`
	Node    int       `json:"node"`
	Shard   int       `json:"shard"`
	Kind    TraceKind `json:"kind"`
	At      int64     `json:"at_ns"`
	Seq     uint64    `json:"seq,omitempty"`
	Arg     int64     `json:"arg,omitempty"`
}

// WriteTraceJSONL renders events one JSON object per line — the
// interchange form /debug/trace serves and cmd/pdqtrace reads.
func WriteTraceJSONL(w io.Writer, evs []TraceEvent) error {
	enc := json.NewEncoder(w)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// traceIDCtr feeds NewTraceID. One process-wide counter means every
// queue — including every node queue of an in-process cluster — draws
// from the same ID space, so cross-node traces can never collide.
var traceIDCtr atomic.Uint64

// NewTraceID returns a fresh nonzero process-unique trace ID. Callers
// normally let the queue sample IDs itself (WithTrace); allocate one
// explicitly to force-trace a particular message via WithTraceID.
func NewTraceID() uint64 {
	// splitmix64 finalizer over a counter: unique by construction,
	// mixed so IDs spread over the full word.
	x := traceIDCtr.Add(1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// traceRingSize is each shard's event-ring capacity. At 48 bytes per
// slot a shard's ring is ~192 KiB, allocated only when tracing is on.
const traceRingSize = 1 << 12

// traceSlot is one ring slot. Every field is atomic: slots are written
// by concurrent producers (a lapped ring means two producers can own
// the same physical slot) and read by a concurrent snapshot, so plain
// fields would be a data race even though the version word already
// detects logical tearing. ver is 2*pos+1 while the writer of ring
// position pos is mid-write and 2*pos+2 once published; a snapshot
// accepts a slot only when ver reads 2*pos+2 both before and after the
// field copy.
type traceSlot struct {
	ver  atomic.Uint64
	id   atomic.Uint64
	at   atomic.Uint64
	seq  atomic.Uint64
	meta atomic.Uint64 // kind | shard<<8
	arg  atomic.Uint64
}

// traceRing is one shard's flight-recorder ring. Producers contend only
// on tail (one atomic add per event); head is the snapshot cursor,
// guarded by tracer.mu.
type traceRing struct {
	slots []traceSlot
	mask  uint64
	_     cpad
	//pdq:isolated
	tail atomic.Uint64 // next ring position to claim
	_    cpad
	head uint64 // first unconsumed position; guarded by tracer.mu
}

// tracer is a queue's trace state: the sampler and the per-shard rings.
// Nil on an untraced queue — every record site guards on that nil, so
// the disabled path is one predictable branch.
type tracer struct {
	node   int    // WithTraceNode label stamped on every event
	stride uint64 // sample every stride-th admission

	ctr      atomic.Uint64 // admissions seen by the sampler
	sampled  atomic.Uint64 // admissions stamped with a trace ID
	recorded atomic.Uint64 // events written into the rings
	dropped  atomic.Uint64 // events lost to overwrite or torn reads (counted at snapshot)

	mu    sync.Mutex // serializes snapshots (ring head cursors)
	rings []traceRing
}

// newTracer builds the tracer for a queue of nshards shards sampling at
// rate (0 < rate <= 1; the caller gates on rate > 0).
func newTracer(rate float64, nodeID, nshards int) *tracer {
	stride := uint64(1)
	if rate < 1 {
		stride = uint64(1/rate + 0.5)
		if stride < 1 {
			stride = 1
		}
	}
	t := &tracer{node: nodeID, stride: stride, rings: make([]traceRing, nshards)}
	for i := range t.rings {
		t.rings[i].slots = make([]traceSlot, traceRingSize)
		t.rings[i].mask = traceRingSize - 1
	}
	return t
}

// sample elects one admission for tracing: every stride-th call returns
// a fresh trace ID, the rest return 0.
func (t *tracer) sample() uint64 {
	if t.ctr.Add(1)%t.stride != 0 {
		return 0
	}
	t.sampled.Add(1)
	return NewTraceID()
}

// record appends one event to shard's ring, overwriting the oldest
// event when the ring is full. Wait-free for producers: one atomic add
// claims a position, the version word brackets the field stores. id
// must be nonzero (callers guard); shard indexes the queue's shards.
func (t *tracer) record(shard uint32, id uint64, kind TraceKind, seq uint64, arg int64) {
	r := &t.rings[shard]
	pos := r.tail.Add(1) - 1
	sl := &r.slots[pos&r.mask]
	sl.ver.Store(2*pos + 1)
	sl.id.Store(id)
	sl.at.Store(uint64(nowNanos()))
	sl.seq.Store(seq)
	sl.meta.Store(uint64(kind) | uint64(shard)<<8)
	sl.arg.Store(arg2u(arg))
	sl.ver.Store(2*pos + 2)
	t.recorded.Add(1)
}

// arg2u and u2arg shuttle the signed event argument through the
// unsigned atomic slot field.
func arg2u(v int64) uint64 { return uint64(v) }
func u2arg(v uint64) int64 { return int64(v) }

// snapshot drains every ring: events recorded since the previous
// snapshot, sorted by timestamp. Slots overwritten before the snapshot
// reached them, and slots caught mid-overwrite, count into dropped.
func (t *tracer) snapshot() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evs []TraceEvent
	for i := range t.rings {
		r := &t.rings[i]
		tail := r.tail.Load()
		pos := r.head
		if lo := tail - min64(tail, uint64(len(r.slots))); pos < lo {
			// The ring lapped the cursor: everything below the last full
			// window is gone.
			t.dropped.Add(lo - pos)
			pos = lo
		}
		for ; pos < tail; pos++ {
			sl := &r.slots[pos&r.mask]
			want := 2*pos + 2
			if sl.ver.Load() != want {
				t.dropped.Add(1)
				continue
			}
			meta := sl.meta.Load()
			ev := TraceEvent{
				TraceID: sl.id.Load(),
				Node:    t.node,
				Shard:   int(meta >> 8),
				Kind:    TraceKind(meta & 0xff),
				At:      int64(sl.at.Load()),
				Seq:     sl.seq.Load(),
				Arg:     u2arg(sl.arg.Load()),
			}
			if sl.ver.Load() != want {
				// A producer lapped the slot mid-copy; the fields may mix
				// two events. Drop, never emit a torn record.
				t.dropped.Add(1)
				continue
			}
			evs = append(evs, ev)
		}
		r.head = tail
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		if evs[a].Seq != evs[b].Seq {
			return evs[a].Seq < evs[b].Seq
		}
		return evs[a].Kind < evs[b].Kind
	})
	return evs
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TraceSnapshot drains and returns the events recorded since the last
// snapshot (or since New), across every shard ring, sorted by
// timestamp. Consuming: each event is returned once, so a periodic
// scraper (the pdqhttp /debug/trace endpoint) streams the event log
// without duplication. Events overwritten between snapshots are lost —
// flight-recorder semantics — and counted in Stats.TraceDropped. Nil
// when the queue was built without WithTrace.
func (q *Queue) TraceSnapshot() []TraceEvent {
	if q.tr == nil {
		return nil
	}
	return q.tr.snapshot()
}

// TraceSampleID asks the queue's sampler to elect one unit of external
// work for tracing: a fresh trace ID on election, 0 otherwise (always 0
// without WithTrace). The cluster tier samples here before forwarding a
// message, so a trace can begin at the origin node — with a forward
// hop — before any queue admits the message.
func (q *Queue) TraceSampleID() uint64 {
	if q.tr == nil {
		return 0
	}
	return q.tr.sample()
}

// RecordTraceEvent injects an externally generated lifecycle event —
// the cluster tier's wire hops — into the queue's trace rings, stamped
// on the same scheduling clock as the core's own events. No-op when the
// queue is untraced or traceID is 0, so callers thread IDs through
// unconditionally.
func (q *Queue) RecordTraceEvent(traceID uint64, kind TraceKind, seq uint64, arg int64) {
	if q.tr == nil || traceID == 0 {
		return
	}
	if kind == 0 || kind >= traceKindEnd {
		return
	}
	q.tr.record(0, traceID, kind, seq, arg)
}
