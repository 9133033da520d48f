package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pdq"
)

// scriptTransport captures every Send instead of delivering it. The test
// then delivers, drops, duplicates and reorders by hand, on its own
// goroutine, so what a session does is a function of the script alone.
// It joins exactly two nodes: whatever reaches one came from the other.
type scriptTransport struct {
	mu   sync.Mutex
	recv [2]func(int, WireMsg)
	wire [2][]WireMsg // wire[to]: captured and not yet taken, in send order
}

func (s *scriptTransport) Bind(node int, recv func(int, WireMsg)) { s.recv[node] = recv }
func (s *scriptTransport) Close()                                 {}

func (s *scriptTransport) Send(from, to int, m WireMsg) {
	s.mu.Lock()
	s.wire[to] = append(s.wire[to], m)
	s.mu.Unlock()
}

// take removes and returns what has been sent to node `to` so far.
func (s *scriptTransport) take(to int) []WireMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.wire[to]
	s.wire[to] = nil
	return ms
}

func (s *scriptTransport) deliver(to int, ms ...WireMsg) {
	for _, m := range ms {
		s.recv[to](1-to, m)
	}
}

// sessionPair is a two-node cluster on a scriptTransport whose session tick
// never fires by itself (the timeout is an hour): the test ticks a node by
// hand, at a time of its choosing. Node 0 sends single-key messages on a
// key node 1 owns; ran receives their payloads in execution order.
type sessionPair struct {
	t   *testing.T
	c   *Cluster
	tr  *scriptTransport
	key pdq.Key // owned by node 1
	ran chan int
	now int64 // the hand-driven retransmission clock
}

func newSessionPair(t *testing.T) *sessionPair {
	t.Helper()
	p := &sessionPair{t: t, tr: &scriptTransport{}, ran: make(chan int, 1<<16), now: nowNanos()}
	c, err := New(2, WithTransport(p.tr), WithRetransmitTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Register("h", func(d any) { p.ran <- d.(int) }); err != nil {
		t.Fatal(err)
	}
	p.c, p.key = c, keyOwnedBy(t, c, 1, 0)
	return p
}

// send enqueues payloads lo..hi-1 at node 0 and returns their wire messages.
func (p *sessionPair) send(lo, hi int) []WireMsg {
	p.t.Helper()
	for i := lo; i < hi; i++ {
		if err := p.c.Enqueue(0, "h", i, p.key); err != nil {
			p.t.Fatal(err)
		}
	}
	ms := p.tr.take(1)
	if len(ms) != hi-lo {
		p.t.Fatalf("node 0 sent %d wire messages for %d enqueues", len(ms), hi-lo)
	}
	return ms
}

// tick runs one session tick of node i, d after the previous one.
func (p *sessionPair) tick(i int, d time.Duration) {
	p.now += int64(d)
	n := p.c.nodes[i]
	n.mu.Lock()
	n.tickLocked(p.now)
	n.mu.Unlock()
}

// unacked is the length of node 0's window to node 1; processed is how far
// node 1 has processed node 0's stream.
func (p *sessionPair) unacked() int {
	n := p.c.nodes[0]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tx[1].win.len()
}

func (p *sessionPair) processed() uint64 {
	n := p.c.nodes[1]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rx[0].next - 1
}

// wantRan asserts that payloads 0..n-1 executed exactly once, in order, and
// nothing else did.
func (p *sessionPair) wantRan(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		select {
		case got := <-p.ran:
			if got != i {
				p.t.Fatalf("execution %d ran payload %d", i, got)
			}
		case <-time.After(10 * time.Second):
			p.t.Fatalf("payload %d never ran", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.c.Quiesce(ctx); err != nil {
		p.t.Fatalf("Quiesce: %v (unacked %d)", err, p.unacked())
	}
	select {
	case got := <-p.ran:
		p.t.Fatalf("payload %d ran a second time", got)
	default:
	}
	if s := p.c.Stats(); s.Executed != uint64(n) {
		p.t.Fatalf("Stats.Executed = %d, want %d", s.Executed, n)
	}
}

// Property: whatever seeded mix of reordering, duplication and loss the
// wire applies to data and acks alike, the receiver processes every
// sequence exactly once and in order, every ack it emits is cumulative
// (ack(n) implies 1..n processed), the sender's window is always the
// contiguous run (acked, nextSeq], and timeout retransmission of the
// window's front alone repairs everything.
func TestSessionScriptedFaults(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p := newSessionPair(t)
		rng := rand.New(rand.NewSource(seed))
		const msgs = 48
		var script []WireMsg
		for _, m := range p.send(0, msgs) {
			for c := []int{0, 1, 1, 1, 2}[rng.Intn(5)]; c > 0; c-- {
				script = append(script, m)
			}
		}
		rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })

		seen := make(map[uint64]bool) // model: which sequences reached node 1
		prefix := uint64(0)           // model: the longest delivered prefix
		acked := uint64(0)            // highest ack that reached node 0
		step := func(toNode1 []WireMsg, lossy bool) {
			for _, m := range toNode1 {
				p.tr.deliver(1, m)
				seen[m.Seq] = true
				for seen[prefix+1] {
					prefix++
				}
				if got := p.processed(); got != prefix {
					t.Fatalf("seed %d: node 1 processed through %d, delivered prefix is %d", seed, got, prefix)
				}
				for _, a := range p.tr.take(0) {
					if a.Kind != kindAck || a.Ack != prefix {
						t.Fatalf("seed %d: ack %+v with prefix %d", seed, a, prefix)
					}
					if lossy && rng.Intn(3) == 0 {
						continue
					}
					p.tr.deliver(0, a)
					acked = max(acked, a.Ack)
					if got := p.unacked(); got != msgs-int(acked) {
						t.Fatalf("seed %d: %d unacked after ack %d of %d", seed, got, acked, msgs)
					}
				}
			}
		}
		step(script, true)
		for round := 0; p.unacked() > 0; round++ {
			if round > 20*msgs {
				t.Fatalf("seed %d: no convergence, %d still unacked", seed, p.unacked())
			}
			p.tick(0, 2*time.Hour)
			resent := p.tr.take(1)
			if len(resent) != 1 || resent[0].Seq != acked+1 {
				t.Fatalf("seed %d: timeout resent %+v, want the front alone (seq %d)", seed, resent, acked+1)
			}
			if rng.Intn(4) > 0 {
				step(resent, rng.Intn(2) == 0)
			}
		}
		p.wantRan(msgs)
	}
}

// A lost cumulative ack is repaired by the next one, with no retransmission.
func TestSessionLostAckCoveredByNext(t *testing.T) {
	p := newSessionPair(t)
	p.tr.deliver(1, p.send(0, 1)...)
	p.tick(1, time.Millisecond)
	if acks := p.tr.take(0); len(acks) != 1 || acks[0].Ack != 1 {
		t.Fatalf("tick flushed %+v, want one ack of 1", acks)
	} // ...and the wire loses it
	p.tr.deliver(1, p.send(1, 2)...)
	p.tick(1, time.Millisecond)
	acks := p.tr.take(0)
	if len(acks) != 1 || acks[0].Ack != 2 {
		t.Fatalf("tick flushed %+v, want one ack of 2", acks)
	}
	p.tr.deliver(0, acks...)
	if p.unacked() != 0 {
		t.Fatalf("ack 2 left %d unacked", p.unacked())
	}
	p.wantRan(2)
	if s := p.c.Stats(); s.Redelivered != 0 || s.DupesDropped != 0 {
		t.Fatalf("repair cost a retransmission: %v", s)
	}
}

// Acks are delayed, not per message: in-order receipts owe an ack that
// leaves on the 32nd receipt, on a sequenced message going the other way,
// or at the next tick — whichever comes first — so a sender is never left
// waiting longer than a tick and Quiesce terminates when traffic stops.
func TestSessionAckDelay(t *testing.T) {
	p := newSessionPair(t)
	ms := p.send(0, ackEvery+3)
	p.tr.deliver(1, ms[:ackEvery-1]...)
	if acks := p.tr.take(0); len(acks) != 0 {
		t.Fatalf("%d in-order receipts already sent %+v", ackEvery-1, acks)
	}
	p.tr.deliver(1, ms[ackEvery-1])
	if acks := p.tr.take(0); len(acks) != 1 || acks[0].Kind != kindAck || acks[0].Ack != ackEvery {
		t.Fatalf("receipt %d sent %+v, want one standalone ack of %d", ackEvery, acks, ackEvery)
	}
	// A message going the other way carries the ack; nothing is owed after.
	p.tr.deliver(1, ms[ackEvery])
	if err := p.c.Enqueue(1, "h", -1, keyOwnedBy(t, p.c, 0, 0)); err != nil {
		t.Fatal(err)
	}
	back := p.tr.take(0)
	if len(back) != 1 || back[0].Kind != kindEnqueue || back[0].Ack != ackEvery+1 {
		t.Fatalf("reverse traffic %+v, want one enqueue carrying ack %d", back, ackEvery+1)
	}
	p.tick(1, time.Millisecond)
	if acks := p.tr.take(0); len(acks) != 0 {
		t.Fatalf("tick after a piggybacked ack sent %+v", acks)
	}
	// Traffic stops with two receipts owed: one tick flushes them.
	p.tr.deliver(1, ms[ackEvery+1:]...)
	p.tick(1, time.Millisecond)
	acks := p.tr.take(0)
	if len(acks) != 1 || acks[0].Ack != uint64(len(ms)) {
		t.Fatalf("tick flushed %+v, want one ack of %d", acks, len(ms))
	}
	p.tr.deliver(0, append(back, acks...)...)
	p.tick(0, time.Millisecond) // node 0 owes the reverse message its ack
	p.tr.deliver(1, p.tr.take(1)...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.c.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce with every ack delivered: %v", err)
	}
	if s := p.c.Stats(); s.Executed != uint64(len(ms))+1 || s.Redelivered != 0 {
		t.Fatalf("executed %d of %d, redelivered %d", s.Executed, len(ms)+1, s.Redelivered)
	}
}

// An arrival beyond a hole is held and forces an immediate ack that names
// the hole; the sender fills exactly the hole, and the receiver then
// delivers everything it held.
func TestSessionGapForcesAck(t *testing.T) {
	p := newSessionPair(t)
	ms := p.send(0, 4)
	p.tr.deliver(1, ms[3])
	p.tr.deliver(1, ms[2])
	acks := p.tr.take(0)
	if len(acks) != 2 || acks[0].Ack != 0 || acks[0].Seq != 4 || acks[1].Ack != 0 || acks[1].Seq != 3 {
		t.Fatalf("arrivals beyond the hole sent %+v, want acks of 0 naming holes (0,4) and (0,3)", acks)
	}
	if p.processed() != 0 {
		t.Fatalf("processed %d across a hole", p.processed())
	}
	// The hole report is honoured once the messages are a tick old.
	n := p.c.nodes[0]
	n.mu.Lock()
	for i := 0; i < n.tx[1].win.len(); i++ {
		n.tx[1].win.at(i).at -= int64(time.Hour)
	}
	n.mu.Unlock()
	p.tr.deliver(0, acks[1])
	fill := p.tr.take(1)
	if len(fill) != 2 || fill[0].Seq != 1 || fill[1].Seq != 2 {
		t.Fatalf("hole report (0,3) resent %+v, want sequences 1 and 2", fill)
	}
	p.tr.deliver(0, acks[1]) // the same report again, inside the tick: ignored
	if again := p.tr.take(1); len(again) != 0 {
		t.Fatalf("a repeated hole report resent %+v", again)
	}
	p.tr.deliver(1, fill[1], fill[0])
	acks = p.tr.take(0)
	if last := acks[len(acks)-1]; last.Ack != 4 || last.Seq != 0 {
		t.Fatalf("filling the hole sent %+v, want a final ack of 4 naming no hole", acks)
	}
	p.tr.deliver(0, acks...)
	p.wantRan(4)
	if s := p.c.Stats(); s.Redelivered != 2 || s.DupesDropped != 0 {
		t.Fatalf("redelivered/dupes = %d/%d, want 2/0", s.Redelivered, s.DupesDropped)
	}
}

// The sender window is a deque over one backing array: many times its
// length in messages flow through it, acked in uneven strides, and it
// neither loses a message nor grows past a small multiple of its peak.
func TestSessionWindowWraps(t *testing.T) {
	p := newSessionPair(t)
	rng := rand.New(rand.NewSource(9))
	const peak, total = 40, 40 * 12
	sent, delivered := 0, 0
	var held []WireMsg
	for delivered < total {
		if burst := min(rng.Intn(peak-len(held)+1), total-sent); burst > 0 {
			held = append(held, p.send(sent, sent+burst)...)
			sent += burst
		}
		k := rng.Intn(len(held) + 1)
		p.tr.deliver(1, held[:k]...)
		held, delivered = held[k:], delivered+k
		p.tick(1, time.Millisecond)
		p.tr.deliver(0, p.tr.take(0)...)
		if got := p.unacked(); got != len(held) {
			t.Fatalf("%d unacked with %d undelivered", got, len(held))
		}
	}
	n := p.c.nodes[0]
	n.mu.Lock()
	grown := cap(n.tx[1].win.buf)
	n.mu.Unlock()
	if grown > 4*peak {
		t.Fatalf("window backing array grew to %d for a peak of %d", grown, peak)
	}
	p.wantRan(total)
}

// window against a plain slice: same contents after any mix of pushes and
// pops, dropped slots zeroed, backing array bounded by the peak length.
func TestWindowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var w window[*int]
	var model []*int
	peak := 0
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			v := new(int)
			w.push(v)
			model = append(model, v)
		} else {
			k := 1 + rng.Intn(len(model))
			w.popFront(k)
			model = model[k:]
		}
		peak = max(peak, len(model))
		if w.len() != len(model) {
			t.Fatalf("op %d: len %d, model %d", op, w.len(), len(model))
		}
		for i, v := range model {
			if *w.at(i) != v {
				t.Fatalf("op %d: slot %d differs from the model", op, i)
			}
		}
		for i, v := range w.buf[:cap(w.buf)] {
			if live := i >= w.head && i < len(w.buf); !live && v != nil {
				t.Fatalf("op %d: dead slot %d still references a value", op, i)
			}
		}
	}
	if cap(w.buf) > 4*peak {
		t.Fatalf("backing array %d for a peak of %d", cap(w.buf), peak)
	}
}
