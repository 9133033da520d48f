package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdq"
	"pdq/cluster"
	"pdq/pdqhttp"
)

// Handler work, in spin iterations. Constants, not calibrated at run time,
// so two runs of one binary do the same work: on the reference host 530
// iterations of spin take about 1 µs.
const (
	workNone = 0
	work1us  = 530
)

// Per-workload segment sizes, in messages. Each is sized so that one
// segment lasts at least 1.2 s on the reference host (README.md says how
// they were calibrated); -seed never changes them.
const (
	fineSegMsgs    = 1_400_000
	hotSegMsgs     = 400_000
	schedSegMsgs   = 100_000 // one second at schedRate
	clusterSegMsgs = 360_000
	httpSegMsgs    = 70_000

	schedRate    = 100_000 // msg/s offered on sched_open
	schedDelay   = time.Millisecond
	schedTTL     = time.Second
	lateAfter    = 100 * time.Microsecond
	clusterNodes = 4
	httpClients  = 2
)

// workload is one row of the benchmark: its name, why it is there, how
// many messages make a segment, and how to generate its inputs and build
// the system they are fed to.
type workload struct {
	name      string
	why       string
	segMsgs   int
	workers   int  // goroutines running handlers
	work      int  // spin iterations per handler
	baselines bool // single-queue layer: lockq and multiq run the same stream
	open      bool // core only: paced open loop on an unbounded queue
	// gen builds one lap's inputs from the seed, single-threaded.
	gen func(rng *rand.Rand, n int) *inputs
	// build constructs the program under test around the inputs and
	// starts its workers; tr is nil on the untraced pass.
	build func(w *workload, in *inputs, tr *tracer) (system, error)
}

// system is a running program under test plus the harness state wired
// into its handlers.
type system interface {
	// lap submits every input record once, stamped with the lap number,
	// and returns when all of them have been handled.
	lap(lap uint32) error
	// layers snapshots the cumulative counters of the program's layers,
	// through their public Stats methods only.
	layers() layerStats
	oracle() *oracle
	// failures counts what the layers refused or dropped so far:
	// rejected, shed, dead-lettered and expired messages.
	failures() uint64
	// pacingCPU is the CPU time, in ns so far, that the load generator
	// burnt waiting for the next message's due instant. It is the
	// harness's, so cpu_us_per_msg leaves it out; 0 on a closed loop.
	pacingCPU() int64
	close()
}

// layerStats is what the per-layer metrics are derived from.
type layerStats struct {
	q    pdq.Stats     // summed over every queue the program owns
	cl   cluster.Stats // zero off cluster_span
	shed uint64        // pdqhttp admission sheds
	late uint64        // sched_open: messages submitted > lateAfter past due
}

var workloads = []workload{
	{
		name:    "fine_disjoint",
		why:     "closed loop, no-op handler, single keys uniform over 65536: all cost is ring publish, claim join/pop, node pool and wake-ups (admission layer)",
		segMsgs: fineSegMsgs, workers: 2, work: workNone, baselines: true,
		gen:   func(rng *rand.Rand, n int) *inputs { return genUniform(rng, n, 65536) },
		build: newCore,
	},
	{
		name:    "hot_keyset",
		why:     "closed loop, 2-key sets Zipf(1.1) over 256 keys, 1us handler: deep claim queues, window probes, cross-shard TryLock, chain handoff (dispatch layer)",
		segMsgs: hotSegMsgs, workers: 2, work: work1us, baselines: true,
		gen:   func(rng *rand.Rand, n int) *inputs { return genZipfPairs(rng, n, 256, 1.1) },
		build: newCore,
	},
	{
		name: "sched_open",
		why:  "open loop at 100000 msg/s, 1 worker, 4 bands, 10% delayed 1ms, TTL 1s: workers park between messages, so eventcount, timer heap and band credits dominate",
		// One worker: the spinning generator is the second thread.
		segMsgs: schedSegMsgs, workers: 1, work: workNone, open: true,
		gen:   genSched,
		build: newCore,
	},
	{
		name:    "cluster_span",
		why:     "4-node in-process cluster at zero loss, 20% two-key sets, enqueue a lap of inputs unpaced then quiesce: forwarding, claim/grant/release and session ack/retransmit dominate",
		segMsgs: clusterSegMsgs, workers: clusterNodes, work: workNone,
		gen:   genCluster,
		build: newClusterSys,
	},
	{
		name:    "http_ingest",
		why:     "2 keep-alive clients posting pre-encoded JSON to pdqhttp over loopback: JSON decode, registry, admission and net/http dominate, the core is under 5%",
		segMsgs: httpSegMsgs, workers: 2, work: workNone,
		gen:   genHTTP,
		build: newHTTPSys,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything a lap feeds the program, generated before the
// system exists. keys holds setSize slots per record; a record uses its
// first nk.
type inputs struct {
	setSize int
	keys    []pdq.Key
	recs    []msg
	reqs    [][]byte // http_ingest: one pre-encoded request per record
}

func newInputs(n, setSize int) *inputs {
	in := &inputs{setSize: setSize, keys: make([]pdq.Key, n*setSize), recs: make([]msg, n)}
	for i := range in.recs {
		in.recs[i].idx = uint32(i)
		in.recs[i].nk = uint8(setSize)
	}
	return in
}

func (in *inputs) keysOf(i int) []pdq.Key {
	return in.keys[i*in.setSize : i*in.setSize+int(in.recs[i].nk)]
}

func genUniform(rng *rand.Rand, n, nkeys int) *inputs {
	in := newInputs(n, 1)
	for i := range in.keys {
		in.keys[i] = pdq.Key(rng.Intn(nkeys))
	}
	return in
}

func genZipfPairs(rng *rand.Rand, n, nkeys int, s float64) *inputs {
	in := newInputs(n, 2)
	z := rand.NewZipf(rng, s, 1, uint64(nkeys-1))
	for i := 0; i < n; i++ {
		a := z.Uint64()
		b := z.Uint64()
		for b == a { // a key set names each key once
			b = z.Uint64()
		}
		in.keys[2*i], in.keys[2*i+1] = pdq.Key(a), pdq.Key(b)
	}
	return in
}

func genSched(rng *rand.Rand, n int) *inputs {
	in := genUniform(rng, n, 4096)
	for i := range in.recs {
		in.recs[i].delayed = rng.Intn(10) == 0
	}
	return in
}

func genCluster(rng *rand.Rand, n int) *inputs {
	in := newInputs(n, 2)
	for i := 0; i < n; i++ {
		a := rng.Intn(4096)
		in.keys[2*i] = pdq.Key(a)
		if rng.Intn(5) == 0 {
			b := rng.Intn(4095)
			if b >= a {
				b++
			}
			in.keys[2*i+1] = pdq.Key(b)
		} else {
			in.recs[i].nk = 1
		}
	}
	return in
}

const httpQueue = "ingest"

func genHTTP(rng *rand.Rand, n int) *inputs {
	in := genUniform(rng, n, 4096)
	in.reqs = make([][]byte, n)
	for i := range in.reqs {
		body, err := json.Marshal(pdqhttp.WireMessage{
			Handler: "noop",
			Keys:    []uint64{uint64(in.keys[i])},
			Data:    json.RawMessage(strconv.Itoa(i)),
		})
		if err != nil {
			panic(err) // a WireMessage of plain values always encodes
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "POST /v1/queues/%s/messages HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", httpQueue, len(body))
		b.Write(body)
		in.reqs[i] = b.Bytes()
	}
	return in
}

// coreSys drives one pdq.Queue: closed loop (fine_disjoint, hot_keyset)
// or open loop (sched_open).
type coreSys struct {
	in   *inputs
	o    *oracle
	tr   *tracer
	q    *pdq.Queue
	fn   func(any)
	open bool
	stop func()

	rejected uint64
	late     uint64
	paced    int64 // see pacingCPU
	dead     atomic.Uint64
}

func newCore(w *workload, in *inputs, tr *tracer) (system, error) {
	s := &coreSys{in: in, tr: tr, open: w.open, o: newOracle(in, 1, w.work)}
	s.fn = func(d any) { s.o.handle(d.(*msg)) }
	opts := []pdq.Option{
		pdq.WithShards(2),
		pdq.WithDeadLetter(func(pdq.Message, error) { s.dead.Add(1) }),
	}
	if !w.open {
		// Bounded depth: backlog, heap and GC cadence stay constant
		// however far ahead the producer could get.
		opts = append(opts, pdq.WithCapacity(1024))
	}
	s.q = pdq.New(opts...)
	if tr != nil {
		s.stop = tr.serve(w.workers, func(ctx context.Context) (*pdq.Queue, *pdq.Entry, error) {
			e, err := s.q.DequeueContext(ctx)
			return s.q, e, err
		}, func(d any) *msg { return d.(*msg) })
	} else {
		s.stop = pdq.Serve(context.Background(), s.q, w.workers).Stop
	}
	return s, nil
}

func (s *coreSys) lap(lap uint32) error {
	if s.open {
		s.submitOpen(lap)
	} else {
		s.submitClosed(lap)
	}
	s.q.Drain()
	return nil
}

func (s *coreSys) submitClosed(lap uint32) {
	ctx := context.Background()
	for i := range s.in.recs {
		m := &s.in.recs[i]
		m.lap.Store(lap)
		var t0 int64
		if i%latencyStride == 0 {
			t0 = now()
			m.submit.Store(t0)
		}
		err := s.q.EnqueueMessageWait(ctx, pdq.Message{Keys: s.in.keysOf(i), Data: m, Handler: s.fn})
		if s.tr != nil && i%traceStride == 0 {
			s.tr.add(spanEnqueue, lap, i, t0, now())
		}
		if err != nil {
			s.rejected++
		}
	}
}

// submitOpen offers the lap on a fixed schedule, one message every
// 1/schedRate, spinning on the clock between messages. A message is timed
// from its due instant (its maturity when delayed), not from when the
// generator got round to it, so generator stalls show up as latency.
//
// The spin is a whole CPU, ten times what the queue costs at this rate, and
// none of it is the program's. The generator therefore stays on one OS
// thread for the lap, and the share of that thread's CPU time that went
// into waiting for due instants (by wall time, which a descheduled thread
// loses on both sides alike) is added to s.paced.
func (s *coreSys) submitOpen(lap uint32) {
	const period = int64(time.Second) / schedRate
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPUNanos()
	var waited int64
	start := now()
	t := start
	for i := range s.in.recs {
		due := start + int64(i)*period
		returned := t // when the previous enqueue returned
		for t < due {
			t = now()
		}
		waited += t - returned
		if t-due > int64(lateAfter) {
			s.late++
		}
		m := &s.in.recs[i]
		m.lap.Store(lap)
		pm := pdq.Message{
			Keys:     s.in.keysOf(i),
			Data:     m,
			Handler:  s.fn,
			Priority: i % pdq.NumPriorities,
			Deadline: epoch.Add(time.Duration(due) + schedTTL),
		}
		at := due
		if m.delayed {
			at += int64(schedDelay)
			pm.NotBefore = epoch.Add(time.Duration(at))
		}
		if m.delayed || i%latencyStride == 0 {
			m.submit.Store(at)
		}
		err := s.q.EnqueueMessage(pm)
		called := t
		t = now()
		if s.tr != nil && i%traceStride == 0 {
			// The span starts at the call; the message span at the due
			// instant, so generator lateness is the gap between them.
			s.tr.add(spanEnqueue, lap, i, called, t)
		}
		if err != nil {
			s.rejected++
		}
	}
	s.paced += int64(float64(threadCPUNanos()-cpu0) * ratio(float64(waited), float64(t-start)))
}

func (s *coreSys) layers() layerStats { return layerStats{q: s.q.Stats(), late: s.late} }
func (s *coreSys) oracle() *oracle    { return s.o }
func (s *coreSys) pacingCPU() int64   { return s.paced }
func (s *coreSys) failures() uint64 {
	return s.rejected + s.dead.Load() + s.q.Stats().Expired
}

func (s *coreSys) close() {
	s.q.Close()
	s.stop()
}

// clusterSys drives a 4-node in-process cluster. The cluster owns its
// workers, so the traced pass sees only its entry points and the handler.
type clusterSys struct {
	in *inputs
	o  *oracle
	tr *tracer
	c  *cluster.Cluster

	submitted uint64
	rejected  uint64
	dead      atomic.Uint64
}

func newClusterSys(w *workload, in *inputs, tr *tracer) (system, error) {
	s := &clusterSys{in: in, tr: tr, o: newOracle(in, clusterNodes, w.work)}
	// The cluster keeps enqueue order only between messages of one origin
	// that route identically; single-key messages of one origin on one key
	// always do. A two-key message is ordered at each key's owner by
	// arrival, which the harness cannot predict.
	s.o.orderGroup = func(i int) int {
		if in.recs[i].nk != 1 {
			return -1
		}
		return i % clusterNodes // the origin
	}
	c, err := cluster.New(clusterNodes,
		cluster.WithWorkers(1),
		cluster.WithTransport(cluster.NewChanTransport(clusterNodes)),
		cluster.WithDeadLetter(func(int, pdq.Message, error) { s.dead.Add(1) }))
	if err != nil {
		return nil, err
	}
	s.c = c
	err = c.Register("h", func(d any) {
		m := d.(*msg)
		if tr == nil || m.idx%traceStride != 0 {
			s.o.handle(m)
			return
		}
		t0 := now()
		s.o.handle(m)
		tr.handled(m, t0, now())
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

func (s *clusterSys) lap(lap uint32) error {
	for i := range s.in.recs {
		m := &s.in.recs[i]
		m.lap.Store(lap)
		var t0 int64
		if i%latencyStride == 0 {
			t0 = now()
			m.submit.Store(t0)
		}
		err := s.c.Enqueue(i%clusterNodes, "h", m, s.in.keysOf(i)...)
		if s.tr != nil && i%traceStride == 0 {
			s.tr.add(spanClusterEnqueue, lap, i, t0, now())
		}
		if err != nil {
			s.rejected++
		}
	}
	s.submitted += uint64(len(s.in.recs))
	t0 := now()
	err := s.c.Quiesce(context.Background())
	if s.tr != nil {
		s.tr.add(spanClusterQuiesce, lap, -1, t0, now())
	}
	return err
}

func (s *clusterSys) layers() layerStats {
	ls := layerStats{cl: s.c.Stats()}
	for _, n := range ls.cl.PerNode {
		addQueueStats(&ls.q, n.Queue)
	}
	return ls
}

func (s *clusterSys) oracle() *oracle  { return s.o }
func (s *clusterSys) pacingCPU() int64 { return 0 }
func (s *clusterSys) failures() uint64 {
	// After Quiesce the cluster must have executed exactly what was
	// submitted.
	missing := s.submitted - s.c.Stats().Executed
	if missing > s.submitted {
		missing = -missing // executed more than submitted
	}
	return s.rejected + s.dead.Load() + missing
}
func (s *clusterSys) close() { s.c.Close() }

// httpSys drives pdqhttp over a real loopback listener with two
// keep-alive connections, each posting its next message when the previous
// 202 arrives.
type httpSys struct {
	in   *inputs
	o    *oracle
	tr   *tracer
	mux  *pdq.Mux
	q    *pdq.Queue
	reg  *pdqhttp.Registry
	srv  *pdqhttp.Server
	hs   *http.Server
	stop func()
	conn [httpClients]net.Conn
	rd   [httpClients]*bufio.Reader

	non202 atomic.Uint64
	dead   atomic.Uint64
}

func newHTTPSys(w *workload, in *inputs, tr *tracer) (system, error) {
	s := &httpSys{in: in, tr: tr, o: newOracle(in, httpClients, w.work), mux: pdq.NewMux()}
	// Two connections race at the server, so order is promised only
	// between the messages of one client.
	s.o.orderGroup = func(i int) int { return i % httpClients }
	q, err := s.mux.Queue(httpQueue, pdq.WithShards(2), pdq.WithCapacity(65536),
		pdq.WithDeadLetter(func(pdq.Message, error) { s.dead.Add(1) }))
	if err != nil {
		return nil, err
	}
	s.q = q
	s.reg = pdqhttp.NewRegistry()
	s.reg.Register("noop", func(data json.RawMessage) { s.o.handle(s.recOf(data)) })
	s.srv = pdqhttp.NewServer(s.mux, s.reg)
	var h http.Handler = s.srv
	if tr != nil {
		// The server-side span: a middleware around Server.ServeHTTP,
		// for the requests the client marked as sampled.
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v := r.Header.Get(traceHeader)
			if v == "" {
				s.srv.ServeHTTP(w, r)
				return
			}
			t0 := now()
			s.srv.ServeHTTP(w, r)
			t1 := now()
			m := s.recOf(json.RawMessage(v))
			tr.add(spanHTTPServe, m.lap.Load(), int(m.idx), t0, t1)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: h}
	go s.hs.Serve(ln) // returns when close shuts the server down
	if tr != nil {
		s.stop = tr.serve(w.workers, s.mux.DequeueContext, func(d any) *msg { return s.recOf(d.(json.RawMessage)) })
	} else {
		s.stop = pdq.ServeMux(context.Background(), s.mux, w.workers).Stop
	}
	for c := range s.conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conn[c] = conn
		s.rd[c] = bufio.NewReader(conn)
	}
	return s, nil
}

// recOf maps a wire payload (the record's index in decimal) back to its
// record.
func (s *httpSys) recOf(data json.RawMessage) *msg {
	i := 0
	for _, c := range data {
		i = i*10 + int(c-'0')
	}
	return &s.in.recs[i%len(s.in.recs)]
}

func (s *httpSys) lap(lap uint32) error {
	var wg sync.WaitGroup
	errs := make([]error, httpClients)
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.client(c, lap)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.q.Drain()
	return nil
}

// traceHeader carries a sampled message's index to the server-side span.
const traceHeader = "X-Bench-Msg"

// client posts records c, c+2, c+4, … over connection c.
func (s *httpSys) client(c int, lap uint32) error {
	conn, rd := s.conn[c], s.rd[c]
	for i := c; i < len(s.in.recs); i += httpClients {
		m := &s.in.recs[i]
		m.lap.Store(lap)
		req := s.in.reqs[i]
		sampled := s.tr != nil && i%traceStride == 0
		if sampled {
			req = bytes.Replace(req, []byte("\r\nHost:"), []byte(fmt.Sprintf("\r\n%s: %d\r\nHost:", traceHeader, i)), 1)
		}
		if s.tr != nil && i%traceStride == traceStride/2 {
			if err := s.probeEnqueue(m, lap, req); err != nil {
				return err
			}
			continue
		}
		t0 := now()
		m.submit.Store(t0)
		if _, err := conn.Write(req); err != nil {
			return fmt.Errorf("http_ingest: client %d: %w", c, err)
		}
		status, err := readResponse(rd)
		if err != nil {
			return fmt.Errorf("http_ingest: client %d: %w", c, err)
		}
		if sampled {
			s.tr.add(spanHTTPRoundtrip, lap, i, t0, now())
		}
		if status != http.StatusAccepted {
			s.non202.Add(1)
		}
	}
	return nil
}

// probeEnqueue admits one message of the traced pass straight into the
// server's queue, through the same public calls the server makes after
// decoding, with a span around the enqueue alone. That is pdq's share of
// a served request, measured on the same queue under the same load.
func (s *httpSys) probeEnqueue(m *msg, lap uint32, req []byte) error {
	var wm pdqhttp.WireMessage
	_, body, _ := bytes.Cut(req, []byte("\r\n\r\n"))
	if err := json.Unmarshal(body, &wm); err != nil {
		return fmt.Errorf("http_ingest: probe: %w", err)
	}
	pm, err := wm.ToMessage(s.reg)
	if err != nil {
		return fmt.Errorf("http_ingest: probe: %w", err)
	}
	t0 := now()
	m.submit.Store(t0)
	err = s.q.EnqueueMessage(pm)
	s.tr.add(spanEnqueue, lap, int(m.idx), t0, now())
	if err != nil {
		s.non202.Add(1)
	}
	return nil
}

// readResponse reads one HTTP/1.1 response with a Content-Length body and
// returns its status, allocating nothing.
func readResponse(rd *bufio.Reader) (status int, err error) {
	line, err := rd.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = rd.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, fmt.Errorf("bad content-length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("response without content-length")
	}
	_, err = rd.Discard(length)
	return status, err
}

func (s *httpSys) layers() layerStats {
	ls := layerStats{q: s.q.Stats()}
	for _, n := range s.srv.Admission().Stats().Shed {
		ls.shed += n
	}
	return ls
}

func (s *httpSys) oracle() *oracle  { return s.o }
func (s *httpSys) pacingCPU() int64 { return 0 }
func (s *httpSys) failures() uint64 {
	return s.non202.Load() + s.dead.Load() + s.q.Stats().Expired
}

func (s *httpSys) close() {
	for _, c := range s.conn {
		if c != nil {
			c.Close()
		}
	}
	s.hs.Close()
	s.mux.Close()
	s.stop()
}

// addQueueStats adds the counters the per-layer metrics read.
func addQueueStats(dst *pdq.Stats, s pdq.Stats) {
	dst.Enqueued += s.Enqueued
	dst.Dispatched += s.Dispatched
	dst.Completed += s.Completed
	dst.KeyConflicts += s.KeyConflicts
	dst.OrderConflicts += s.OrderConflicts
	dst.WindowStalls += s.WindowStalls
	dst.Waits += s.Waits
	dst.EnqueueWaits += s.EnqueueWaits
	dst.CrossShard += s.CrossShard
	dst.Expired += s.Expired
	dst.Delayed += s.Delayed
	dst.TimerWakeups += s.TimerWakeups
	dst.ChainHandoffs += s.ChainHandoffs
	dst.RingPublished += s.RingPublished
	dst.RingFallbacks += s.RingFallbacks
	dst.NodesReclaimed += s.NodesReclaimed
	dst.NodesCapped += s.NodesCapped
	for b := range dst.BandLatency {
		dst.BandLatency[b].Merge(&s.BandLatency[b])
	}
}
