package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"pdq"
)

// traceStride is the sampling stride of the traced pass: every 64th
// message gets a span around each public call made on its behalf. It is a
// multiple of latencyStride, so every sampled message is also stamped.
const traceStride = 64

// spanKind names the public call (or whole-message interval) a span
// covers. All spans are recorded by the harness, outside the program.
type spanKind uint8

const (
	spanNone           spanKind = iota
	spanMessage                 // submit → completion, the root of one message's spans
	spanEnqueue                 // Queue.EnqueueMessage[Wait]
	spanDequeue                 // Queue/Mux.DequeueContext call that returned the message
	spanHandler                 // the handler invocation
	spanComplete                // Queue.Complete
	spanClusterEnqueue          // Cluster.Enqueue
	spanClusterQuiesce          // Cluster.Quiesce, one per lap
	spanHTTPRoundtrip           // client write → 202 read
	spanHTTPServe               // Server.ServeHTTP, seen from a middleware
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"", "message", "enqueue", "dequeue", "handler", "complete",
	"cluster.enqueue", "cluster.quiesce", "http.roundtrip", "http.serve",
}

// spanParent is the span that caused (and encloses) each kind.
var spanParent = [numSpanKinds]spanKind{
	spanEnqueue:        spanMessage,
	spanDequeue:        spanMessage,
	spanHandler:        spanMessage,
	spanComplete:       spanMessage,
	spanClusterEnqueue: spanMessage,
	spanHTTPRoundtrip:  spanMessage,
	spanHTTPServe:      spanHTTPRoundtrip,
}

type span struct {
	kind       spanKind
	lap        uint32
	msg        int32 // message index, -1 for a span of the whole lap
	start, end int64
	self       int64 // filled by selfTimes
}

// tracer is the in-memory span log of one traced pass. The buffer is
// allocated up front and written through one atomic cursor, so recording
// a span allocates nothing; it is written out when the pass ends.
type tracer struct {
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) add(k spanKind, lap uint32, msg int, start, end int64) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{kind: k, lap: lap, msg: int32(msg), start: start, end: end}
	}
}

// recorded returns the spans written so far and how many did not fit.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// serve is the traced pass's worker pool: the harness owns the loop and
// makes the three public calls itself — dequeue, the handler, Complete —
// so each can be timed. recOf maps a payload to its record.
func (t *tracer) serve(workers int, dequeue func(context.Context) (*pdq.Queue, *pdq.Entry, error), recOf func(any) *msg) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := now()
				q, e, err := dequeue(ctx)
				if err != nil {
					return // cancelled, or closed and drained
				}
				pm := e.Message()
				m := recOf(pm.Data)
				if m.idx%traceStride != 0 {
					pm.Handler(pm.Data)
					q.Complete(e)
					continue
				}
				t1 := now()
				pm.Handler(pm.Data)
				t2 := now()
				q.Complete(e)
				t3 := now()
				lap, i := m.lap.Load(), int(m.idx)
				t.add(spanDequeue, lap, i, t0, t1)
				t.add(spanHandler, lap, i, t1, t2)
				t.add(spanComplete, lap, i, t2, t3)
				t.add(spanMessage, lap, i, m.submit.Load(), t3)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// handled records a handler invocation the harness timed from inside the
// handler, for layers that own their workers (the cluster).
func (t *tracer) handled(m *msg, start, end int64) {
	lap, i := m.lap.Load(), int(m.idx)
	t.add(spanHandler, lap, i, start, end)
	t.add(spanMessage, lap, i, m.submit.Load(), end)
}

// selfTimes fills every span's self time: its duration minus the part of
// its interval that its child spans cover. Spans of one message share
// (lap, msg); a message has at most one span of each kind, so children
// never overlap each other.
func selfTimes(spans []span) {
	sort.Slice(spans, func(a, b int) bool {
		x, y := &spans[a], &spans[b]
		if x.lap != y.lap {
			return x.lap < y.lap
		}
		if x.msg != y.msg {
			return x.msg < y.msg
		}
		return x.start < y.start
	})
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].lap == spans[lo].lap && spans[hi].msg == spans[lo].msg {
			hi++
		}
		group := spans[lo:hi]
		for i := range group {
			p := &group[i]
			p.self = p.end - p.start
			if p.msg < 0 {
				continue
			}
			for j := range group {
				c := &group[j]
				if spanParent[c.kind] != p.kind {
					continue
				}
				if d := min(p.end, c.end) - max(p.start, c.start); d > 0 {
					p.self -= d
				}
			}
		}
		lo = hi
	}
}

// writeSpans writes the span log as JSON lines.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, "{\"name\":%q,\"parent\":%q,\"seg\":%d,\"msg\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n",
			spanNames[s.kind], spanNames[spanParent[s.kind]], s.lap, s.msg, s.start, s.end, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kindStats summarises the spans of one kind.
type kindStats struct {
	dur   []float64 // durations, sorted
	self  []float64 // self times, sorted
	total float64   // sum of durations
	over  float64   // sum of (duration − median duration) where positive
}

func (k *kindStats) p50() float64     { return sortedQuantile(k.dur, 0.5) }
func (k *kindStats) selfP50() float64 { return sortedQuantile(k.self, 0.5) }

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[int(q*float64(len(s)-1))]
}

func summarise(spans []span) [numSpanKinds]kindStats {
	var ks [numSpanKinds]kindStats
	for i := range spans {
		s := &spans[i]
		k := &ks[s.kind]
		k.dur = append(k.dur, float64(s.end-s.start))
		k.self = append(k.self, float64(s.self))
		k.total += float64(s.end - s.start)
	}
	for i := range ks {
		k := &ks[i]
		sort.Float64s(k.dur)
		sort.Float64s(k.self)
		med := k.p50()
		for _, d := range k.dur {
			if d > med {
				k.over += d - med
			}
		}
	}
	return ks
}

// traceInput is everything the per-layer metrics are computed from.
type traceInput struct {
	spans   []span
	workers int

	// The untraced reference pass, run with the real worker pools: its
	// counters feed the ratio metrics, its throughput is the base of the
	// tracing overhead.
	ref        layerStats // cumulative over refMsgs messages, warm-up included
	refMsgs    float64
	refRates   []float64 // msgs/s per segment
	refLatency *histSnap // dispatch latency, all reference segments

	tracedMsgs float64
	tracedWall float64 // ns, summed over the traced segments
	tracedRate float64 // msgs/s, median over the traced segments

	lockqRate, multiqRate float64 // 0 where the baselines do not apply
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric. Times come from the spans
// of the traced pass (sampled sums are scaled by traceStride); counts come
// from the public Stats of the untraced reference pass.
func layerMetrics(in traceInput) map[string]metric {
	ks := summarise(in.spans)
	q, cl, n := in.ref.q, in.ref.cl, in.refMsgs
	f := func(u uint64) float64 { return float64(u) }
	workerWall := float64(in.workers) * in.tracedWall

	m := map[string]metric{
		// pdq admission
		"pdq.enqueue_ns_p50":        {ks[spanEnqueue].p50(), "ns"},
		"pdq.enqueue_busy_frac":     {ratio(in.tracedMsgs*ks[spanEnqueue].p50(), in.tracedWall), "fraction"},
		"pdq.ring_fallback_ratio":   {ratio(f(q.RingFallbacks), f(q.RingPublished+q.RingFallbacks)), "ratio"},
		"pdq.node_reuse_ratio":      {ratio(f(q.NodesReclaimed), f(q.NodesReclaimed+q.NodesCapped)), "ratio"},
		"pdq.enqueue_waits_per_msg": {ratio(f(q.EnqueueWaits), n), "1/msg"},
		// pdq dispatch
		"pdq.dequeue_ns_p50":        {ks[spanDequeue].p50(), "ns"},
		"pdq.dequeue_wait_frac":     {ratio(traceStride*ks[spanDequeue].over, workerWall), "fraction"},
		"pdq.complete_ns_p50":       {ks[spanComplete].p50(), "ns"},
		"pdq.probes_per_dispatch":   {ratio(f(q.KeyConflicts+q.OrderConflicts), f(q.Dispatched)), "1/msg"},
		"pdq.window_stalls_per_msg": {ratio(f(q.WindowStalls), n), "1/msg"},
		"pdq.cross_shard_per_msg":   {ratio(f(q.CrossShard), n), "1/msg"},
		"pdq.handoff_ratio":         {ratio(f(q.ChainHandoffs), f(q.Completed)), "ratio"},
		// pdq scheduling and wake-up
		"pdq.waits_per_msg":         {ratio(f(q.Waits), n), "1/msg"},
		"pdq.timer_wakeups_per_msg": {ratio(f(q.TimerWakeups), n), "1/msg"},
		"pdq.delayed_frac":          {ratio(f(q.Delayed), f(q.Enqueued)), "fraction"},
		"harness.late_frac":         {ratio(f(in.ref.late), n), "fraction"},
		"harness.dispatch_p99_us":   {in.refLatency.quantile(0.99) / 1e3, "us"},
		// handler, owned by the harness
		"handler.self_ns_p50": {ks[spanHandler].selfP50(), "ns"},
		"handler.busy_frac":   {ratio(traceStride*ks[spanHandler].total, workerWall), "fraction"},
		// cluster
		"cluster.enqueue_ns_p50":        {ks[spanClusterEnqueue].p50(), "ns"},
		"cluster.quiesce_wait_frac":     {ratio(ks[spanClusterQuiesce].total, in.tracedWall), "fraction"},
		"cluster.forwarded_frac":        {ratio(f(cl.Forwarded), n), "fraction"},
		"cluster.spanning_frac":         {ratio(f(cl.Spanning), n), "fraction"},
		"cluster.wire_msgs_per_msg":     {ratio(f(cl.MsgsSent), f(cl.Executed)), "1/msg"},
		"cluster.redelivered_per_msg":   {ratio(f(cl.Redelivered), f(cl.Executed)), "1/msg"},
		"cluster.dupes_dropped_per_msg": {ratio(f(cl.DupesDropped), f(cl.Executed)), "1/msg"},
		// pdqhttp
		"http.roundtrip_us_p50":        {ks[spanHTTPRoundtrip].p50() / 1e3, "us"},
		"http.serve_ns_p50":            {ks[spanHTTPServe].p50(), "ns"},
		"http.net_self_us_p50":         {ks[spanHTTPRoundtrip].selfP50() / 1e3, "us"},
		"http.codec_admit_self_ns_p50": {max(0, ks[spanHTTPServe].p50()-ks[spanEnqueue].p50()), "ns"},
		"http.shed_frac":               {ratio(f(in.ref.shed), n), "fraction"},
		// baselines on the identical key stream
		"baseline.lockq.msgs_per_s":  {in.lockqRate, "msg/s"},
		"baseline.multiq.msgs_per_s": {in.multiqRate, "msg/s"},
		// harness
		"harness.trace_overhead_frac": {1 - ratio(in.tracedRate, median(in.refRates)), "fraction"},
		"harness.segment_iqr_frac":    {iqrFrac(in.refRates), "fraction"},
		"harness.samples":             {float64(in.refLatency.n), "count"},
	}
	for b := range q.BandLatency {
		m[fmt.Sprintf("pdq.band_p50_us.%d", b)] = metric{float64(q.BandLatency[b].Quantile(0.5)) / 1e3, "us"}
	}
	return m
}

func iqrFrac(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}
