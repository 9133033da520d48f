package main

import (
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors the harness clock; every stamp is monotonic nanoseconds
// since it. The same anchor builds the NotBefore/Deadline instants handed
// to the queue, so harness stamps and queue maturities are comparable.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spinSink keeps the compiler from deleting spin's loop.
var spinSink atomic.Uint64

// spin is the handler's deterministic work: a fixed number of dependent
// xorshift steps, so handler cost never depends on the clock or the load.
func spin(iters int) {
	if iters == 0 {
		return
	}
	x := uint64(iters) | 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		spinSink.Add(1) // never true for xorshift from a nonzero seed
	}
}

// hist is a fixed-size log-linear histogram of nanosecond values: 64
// linear sub-buckets per power of two, so a bucket is at most 1.6% wide.
// Observe is one atomic add, so handlers on different workers share one
// hist and the harness allocates nothing per sample.
const (
	histSub     = 6 // log2 of the sub-buckets per octave
	histOctaves = 36
	histBuckets = (histOctaves + 1) << histSub
)

type hist struct {
	b [histBuckets]atomic.Uint64
}

func histIndex(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSub
	i := (exp-histSub+1)<<histSub + int(uint64(v)>>(exp-histSub))&(1<<histSub-1)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < 1<<histSub {
		return float64(i)
	}
	exp := i>>histSub + histSub - 1
	sub := i & (1<<histSub - 1)
	return float64(uint64(1<<histSub+sub) << (exp - histSub))
}

func (h *hist) observe(v int64) { h.b[histIndex(v)].Add(1) }

// take moves the current counts out, leaving the histogram empty for the
// next segment.
func (h *hist) take() *histSnap {
	s := &histSnap{}
	for i := range h.b {
		c := h.b[i].Swap(0)
		s.b[i] = c
		s.n += c
	}
	return s
}

type histSnap struct {
	b [histBuckets]uint64
	n uint64
}

// quantile interpolates linearly inside the bucket holding rank q·n, so
// the estimate moves smoothly instead of jumping a bucket width.
func (s *histSnap) quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := q * float64(s.n)
	var cum float64
	for i, c := range s.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := histLower(i)
			return lo + (histLower(i+1)-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(histBuckets - 1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(v, n=4) (exclusive method), which is what
// the acceptance check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.75)
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadCPUNanos is the calling OS thread's user+system CPU time so far;
// the caller must be locked to its thread for a difference to mean anything.
func threadCPUNanos() int64 {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMiB is the process's peak resident set so far (ru_maxrss is KiB
// on Linux).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// latencyStride is the index stride of latency stamps: every 8th message
// is timed from submit to handler start.
const latencyStride = 8

// msg is the harness's record of one input message. The program under
// test carries a pointer to it as the message payload (or its index, over
// HTTP), so submitting a message allocates nothing in the harness. Records
// are reused every lap; the lap number tells the uses apart.
type msg struct {
	idx     uint32
	lap     atomic.Uint32 // lap the record was last submitted in, 1-based
	seen    atomic.Uint32 // lap it was last handled in
	nk      uint8         // keys in the record's key set
	delayed bool          // sched_open: submitted with a NotBefore
	submit  atomic.Int64  // submit (or due, or maturity) instant, stamped messages only
}

// oracle checks the queue's guarantees from inside the handler and counts
// every violation; any nonzero count fails the run.
//
//   - exactly once: a record's seen lap must step from lap-1 to lap;
//   - key-set mutual exclusion: a per-key busy flag is taken by CAS;
//   - per-key submission order: the last sequence number handled on an
//     order slot must increase (the flag above makes the slot private);
//   - no start before maturity.
type oracle struct {
	in    *inputs
	nkeys int
	busy  []atomic.Uint32 // one flag per key
	last  []atomic.Uint64 // one order slot per order group and key
	// orderGroup names the group of messages record i is ordered with on
	// each of its keys, or -1 when the layer promises it no order (see
	// each workload). nil means one group: a global per-key order.
	orderGroup func(i int) int

	work int   // spin iterations per handler
	lat  *hist // dispatch latency of stamped messages

	dupOrLost atomic.Uint64
	overlap   atomic.Uint64
	reorder   atomic.Uint64
	early     atomic.Uint64
}

func newOracle(in *inputs, orderGroups, work int) *oracle {
	nkeys := 0
	for _, k := range in.keys {
		nkeys = max(nkeys, int(k)+1)
	}
	return &oracle{
		in:    in,
		nkeys: nkeys,
		busy:  make([]atomic.Uint32, nkeys),
		last:  make([]atomic.Uint64, orderGroups*nkeys),
		work:  work,
		lat:   &hist{},
	}
}

// handle is the body of every workload's handler.
func (o *oracle) handle(m *msg) {
	lap := m.lap.Load()
	if m.idx%latencyStride == 0 || m.delayed {
		start := now()
		if m.idx%latencyStride == 0 {
			o.lat.observe(start - m.submit.Load())
		}
		if m.delayed && start < m.submit.Load() {
			o.early.Add(1)
		}
	}
	if m.seen.Swap(lap) != lap-1 {
		o.dupOrLost.Add(1)
	}
	keys := o.in.keysOf(int(m.idx))
	group := 0
	if o.orderGroup != nil {
		group = o.orderGroup(int(m.idx))
	}
	seq := uint64(lap)<<32 | uint64(m.idx)
	for _, k := range keys {
		if !o.busy[k].CompareAndSwap(0, 1) {
			o.overlap.Add(1)
		}
		if group >= 0 && o.last[group*o.nkeys+int(k)].Swap(seq) >= seq {
			o.reorder.Add(1)
		}
	}
	spin(o.work)
	for _, k := range keys {
		o.busy[k].Store(0)
	}
}

// violations is the number of broken guarantees seen so far; after the
// last lap, unhandled counts the records whose final lap never ran.
func (o *oracle) violations() uint64 {
	return o.dupOrLost.Load() + o.overlap.Load() + o.reorder.Load() + o.early.Load()
}

func (o *oracle) unhandled(lap uint32) uint64 {
	var n uint64
	for i := range o.in.recs {
		if o.in.recs[i].seen.Load() != lap {
			n++
		}
	}
	return n
}

func (s *histSnap) merge(o *histSnap) {
	for i := range s.b {
		s.b[i] += o.b[i]
	}
	s.n += o.n
}
