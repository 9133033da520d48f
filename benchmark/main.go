// Command benchmark is the repo's benchmark: five workloads, each driving
// one layer of the repo through its public API from one process, with
// seven end-to-end metrics per workload and, in a separate traced pass,
// the per-layer metrics that explain them. README.md has the tables.
//
//	go run ./benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-json path]
//	go run ./benchmark -selfcheck
//
// Every metric is printed as "workload/name value unit"; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// With -workload all (and under -selfcheck) every workload runs in a child
// process of its own, so that max_rss_mb is one workload's peak.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pdq/internal/lockq"
	"pdq/internal/multiq"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is one end-to-end metric: its unit, which direction is better,
// and the share of the parent's median by which it may get worse.
// BENCHMARK.json repeats this table; the smoke test keeps them equal.
//
// A bound narrower than the spread of identical runs rejects the benchmark
// itself, so bound is what the reference host's noise allows (README.md,
// "Bounds"); asked is what ISSUE 13 wanted, and the self-check reports
// every cell whose spread is above it as unresolved at that width.
type metricDef struct {
	name, unit, better string
	bound, asked       float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.10},
	{"msgs_per_s", "msg/s", "higher", 0.25, 0.08},
	{"dispatch_p50_us", "us", "lower", 0.25, 0.10},
	{"cpu_us_per_msg", "us/msg", "lower", 0.25, 0.06},
	{"allocs_per_msg", "allocs/msg", "lower", 0.03, 0.03},
	{"max_rss_mb", "MiB", "lower", 0.25, 0.10},
}

// failedFrac is the seventh end-to-end metric. It is 0 on every correct
// run and any other value fails the run outright, so it has no relative
// bound and is not in BENCHMARK.json, whose metrics may never be 0; the
// result line carries it as failed/attempted.
const failedFrac = "failed_frac"

// config is one invocation's settings.
type config struct {
	seed     uint64
	segments int // timed segments of the untraced pass
	trace    bool
	setups   int    // set-up repetitions of the untraced pass; setup_s is their median
	shrink   int    // divides every segment size; 1 except in the smoke test
	outDir   string // where the traced pass writes <workload>.spans.jsonl
}

// outDir is where the command-line runs leave their files, relative to the
// repo root they are started from.
const outDir = "benchmark/out"

const (
	// segmentSeconds is what one timed segment is budgeted at when -seconds
	// is turned into a segment count. Segments are fixed message counts
	// that take 1.0 to 1.4 s on the reference host, so a run measures the
	// same work whatever the host's speed, in a little under -seconds there.
	segmentSeconds = 1.5
	minSegments    = 7 // a median over fewer segments is not worth reporting
	tracedSegments = 3 // timed segments of each pass of a traced run
	// lapsPerSegment is how many times a segment replays the generated
	// inputs. The inputs are a quarter of a segment, so the harness's own
	// records stay a small part of the live heap: max_rss_mb and the GC
	// cadence then belong to the program, not to the input arrays.
	lapsPerSegment = 4
)

// segStats is one timed segment.
type segStats struct {
	WallS         float64 `json:"wall_s"`
	MsgsPerS      float64 `json:"msgs_per_s"`
	DispatchP50US float64 `json:"dispatch_p50_us"`
	CPUUSPerMsg   float64 `json:"cpu_us_per_msg"`
	AllocsPerMsg  float64 `json:"allocs_per_msg"`
	lat           *histSnap
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Segments  []segStats        `json:"segments"`
	SetupS    []float64         `json:"setup_s,omitempty"`
}

// pass is one system from set-up to close.
type pass struct {
	in  *inputs
	sys system
	lap uint32
}

// startPass is the set-up: generate the inputs from the seed, construct
// the system and start its workers, and run one full untimed segment.
func startPass(w *workload, cfg config, tr *tracer) (*pass, error) {
	n := max(w.segMsgs/cfg.shrink/lapsPerSegment, traceStride)
	in := w.gen(rand.New(rand.NewSource(int64(cfg.seed))), n)
	sys, err := w.build(w, in, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p := &pass{in: in, sys: sys}
	if err := p.segment(); err != nil {
		sys.close()
		return nil, err
	}
	sys.oracle().lat.take() // warm-up samples are not measured
	if tr != nil {
		tr.n.Store(0) // nor are warm-up spans
	}
	return p, nil
}

// segment feeds the system the inputs lapsPerSegment times; each lap ends
// when the system has handled all of it.
func (p *pass) segment() error {
	for i := 0; i < lapsPerSegment; i++ {
		p.lap++
		if err := p.sys.lap(p.lap); err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) timed() (segStats, error) {
	n := float64(lapsPerSegment * len(p.in.recs))
	m0, c0, g0, t0 := mallocs(), cpuNanos(), p.sys.pacingCPU(), now()
	err := p.segment()
	t1, g1, c1, m1 := now(), p.sys.pacingCPU(), cpuNanos(), mallocs()
	lat := p.sys.oracle().lat.take()
	return segStats{
		WallS:         float64(t1-t0) / 1e9,
		MsgsPerS:      n / (float64(t1-t0) / 1e9),
		DispatchP50US: lat.quantile(0.5) / 1e3,
		CPUUSPerMsg:   float64(c1-c0-(g1-g0)) / 1e3 / n,
		AllocsPerMsg:  float64(m1-m0) / n,
		lat:           lat,
	}, err
}

// finish runs the end-of-run oracle checks, closes the system and folds
// its counts into the result.
func (p *pass) finish(r *result) {
	o := p.sys.oracle()
	attempted := uint64(p.lap) * uint64(len(p.in.recs))
	failed := p.sys.failures() + o.violations() + o.unhandled(p.lap)
	p.sys.close()
	r.Attempted += attempted
	r.Failed += min(failed, attempted)
}

// segMetrics are the end-to-end metrics that are medians over segments.
var segMetrics = []struct {
	name, unit string
	get        func(*segStats) float64
}{
	{"msgs_per_s", "msg/s", func(s *segStats) float64 { return s.MsgsPerS }},
	{"dispatch_p50_us", "us", func(s *segStats) float64 { return s.DispatchP50US }},
	{"cpu_us_per_msg", "us/msg", func(s *segStats) float64 { return s.CPUUSPerMsg }},
	{"allocs_per_msg", "allocs/msg", func(s *segStats) float64 { return s.AllocsPerMsg }},
}

func column(segs []segStats, f func(*segStats) float64) []float64 {
	v := make([]float64, len(segs))
	for i := range segs {
		v[i] = f(&segs[i])
	}
	return v
}

// measure is the untraced run: cfg.setups set-ups (the last one's system
// is kept), then cfg.segments back-to-back timed segments. Every time-based
// metric is a median over segments.
func measure(w *workload, cfg config) (*result, error) {
	r := &result{Workload: w.name}
	var p *pass
	for i := 0; i < cfg.setups; i++ {
		if p != nil {
			// Drop the previous system and its inputs before the next
			// ones are built, so peak memory is one system's, every run.
			p.finish(r)
			p = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if p, err = startPass(w, cfg, nil); err != nil {
			return nil, err
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	for len(r.Segments) < cfg.segments {
		s, err := p.timed()
		if err != nil {
			p.sys.close()
			return nil, err
		}
		r.Segments = append(r.Segments, s)
	}
	p.finish(r)
	r.Metrics = map[string]metric{
		"setup_s":    {median(r.SetupS), "s"},
		"max_rss_mb": {maxRSSMiB(), "MiB"},
	}
	for _, m := range segMetrics {
		r.Metrics[m.name] = metric{median(column(r.Segments, m.get)), m.unit}
	}
	r.conclude()
	return r, nil
}

// conclude derives what follows from the failure counts.
func (r *result) conclude() {
	r.Metrics[failedFrac] = metric{ratio(float64(r.Failed), float64(r.Attempted)), "fraction"}
	r.Correct = r.Failed == 0
}

// measureTraced is the traced run: an untraced reference pass with the
// real worker pools, then a traced pass in which the harness owns the
// worker loop and records spans, then the baselines. Its metrics are the
// per-layer ones; end-to-end numbers never come from here.
func measureTraced(w *workload, cfg config) (*result, error) {
	r := &result{Workload: w.name}
	in := traceInput{workers: w.workers, refLatency: &histSnap{}}

	ref, err := startPass(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < tracedSegments; i++ {
		s, err := ref.timed()
		if err != nil {
			ref.sys.close()
			return nil, err
		}
		r.Segments = append(r.Segments, s)
		in.refRates = append(in.refRates, s.MsgsPerS)
		in.refLatency.merge(s.lat)
	}
	in.ref = ref.sys.layers()
	in.refMsgs = float64(ref.lap) * float64(len(ref.in.recs))
	if w.baselines {
		in.lockqRate, in.multiqRate = baselineRates(ref.in, w.work)
	}
	ref.finish(r)
	spanCap := (len(ref.in.recs)/traceStride + 2) * int(numSpanKinds) * lapsPerSegment * tracedSegments
	ref = nil
	runtime.GC()

	tr := newTracer(spanCap)
	tp, err := startPass(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	var rates []float64
	for i := 0; i < tracedSegments; i++ {
		s, err := tp.timed()
		if err != nil {
			tp.sys.close()
			return nil, err
		}
		rates = append(rates, s.MsgsPerS)
		in.tracedWall += s.WallS * 1e9
		in.tracedMsgs += float64(lapsPerSegment * len(tp.in.recs))
	}
	in.tracedRate = median(rates)
	tp.finish(r)

	var dropped int64
	in.spans, dropped = tr.recorded()
	if dropped > 0 {
		return nil, fmt.Errorf("%s: span log overflowed by %d", w.name, dropped)
	}
	selfTimes(in.spans)
	if err := writeSpans(cfg.outDir, w.name, in.spans); err != nil {
		return nil, err
	}
	r.Metrics = layerMetrics(in)
	r.conclude()
	return r, nil
}

// baselineRates runs the paper's two comparison queues — a FIFO whose
// handlers take a per-key spin lock after dispatch, and statically
// partitioned FIFOs — for one lap of the same key stream (the first key of
// each set) with the same handler work, 2 workers each.
func baselineRates(in *inputs, work int) (lockqRate, multiqRate float64) {
	h := func(any) { spin(work) }
	rate := func(enqueue func(key uint64, h func(any), data any) error, closeq func(), serve func()) float64 {
		done := make(chan struct{})
		go func() {
			serve()
			close(done)
		}()
		t0 := now()
		for i := range in.recs {
			if err := enqueue(uint64(in.keys[i*in.setSize]), h, nil); err != nil {
				panic(err) // an open baseline queue accepts every message
			}
		}
		closeq()
		<-done
		return float64(len(in.recs)) / (float64(now()-t0) / 1e9)
	}
	lq := lockq.New(lockq.SpinLock)
	lockqRate = rate(lq.Enqueue, lq.Close, func() { lq.Serve(2, 0) })
	runtime.GC()
	mq := multiq.New(2)
	multiqRate = rate(mq.Enqueue, mq.Close, mq.Serve)
	runtime.GC()
	return lockqRate, multiqRate
}

// host is the record of where the numbers were taken.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// document is what -json writes.
type document struct {
	Host     host      `json:"host"`
	Seed     uint64    `json:"seed"`
	Segments int       `json:"segments"`
	Trace    bool      `json:"trace"`
	Results  []*result `json:"results"`
}

// report prints every metric as "workload/name value unit" and then the
// one-line JSON summary, which holds the metrics BENCHMARK.json lists and
// so leaves failed_frac to its failed and attempted keys. With one
// workload the JSON metric names are bare; with several they carry the
// workload prefix.
func report(out io.Writer, results []*result) error {
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Metrics[name]
			fmt.Fprintf(out, "%s/%s %v %s\n", r.Workload, name, m.Value, m.Unit)
			if name == failedFrac {
				continue
			}
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			sum.Metrics[name] = m
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg config) (*result, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.trace {
		return measureTraced(w, cfg)
	}
	return measure(w, cfg)
}

// runChild runs one workload in a child process of this same binary and
// reads its result back from the child's -json document. max_rss_mb is a
// process-lifetime peak, so a workload's figure is only its own when
// nothing else ran in the process before it.
func runChild(name string, seed uint64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, name+".result.json")
	os.Remove(path) // a stale document must not pass for this run's
	defer os.Remove(path)
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-json", path)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return nil, fmt.Errorf("%s (seed %d): %w", name, seed, err)
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Results) != 1 {
		return nil, fmt.Errorf("%s (seed %d): unreadable result document %s: %v", name, seed, path, err)
	}
	// A child that saw a broken guarantee still wrote its result and
	// exited 1; the caller reports it.
	return doc.Results[0], nil
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 18, "run length; sets the number of timed segments, at 1.5 s each")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		jsonPath  = flag.String("json", "", "also write the full result document to this file")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of runs and compare them against the bounds")
	)
	flag.Parse()
	if runtime.NumCPU() < 2 {
		fail(2, fmt.Errorf("needs at least 2 CPUs: the generator and a worker must run at the same time"))
	}
	cfg := config{seed: *seed, segments: int(*seconds / segmentSeconds), trace: *trace != 0, setups: 3, shrink: 1, outDir: outDir}
	if cfg.segments < minSegments {
		fail(2, fmt.Errorf("-seconds %v gives %d timed segments of %v s; the medians need at least %d, so at least -seconds %v",
			*seconds, cfg.segments, segmentSeconds, minSegments, minSegments*segmentSeconds))
	}
	// At most two threads ever run Go code, whatever the host has, so the
	// numbers of a 2-CPU host and a larger one are comparable.
	runtime.GOMAXPROCS(2)
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}

	if *selfcheck {
		names := []string{*name}
		if *name == "all" {
			names = workloadNames()
		}
		if err := runSelfcheck(os.Stdout, names, *seconds, h); err != nil {
			fail(1, err)
		}
		return
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion)
	var results []*result
	if *name == "all" {
		for _, n := range workloadNames() {
			r, err := runChild(n, *seed, *seconds, *trace)
			if err != nil {
				fail(2, err)
			}
			results = append(results, r)
		}
	} else {
		r, err := runWorkload(*name, cfg)
		if err != nil {
			fail(2, err)
		}
		results = append(results, r)
	}
	if *jsonPath != "" {
		doc, err := json.MarshalIndent(document{Host: h, Seed: *seed, Segments: cfg.segments, Trace: cfg.trace, Results: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, doc, 0o644)
		}
		if err != nil {
			fail(2, err)
		}
	}
	if err := report(os.Stdout, results); err != nil {
		fail(2, err)
	}
	for _, r := range results {
		if !r.Correct {
			fail(1, fmt.Errorf("%s: %d of %d messages failed or broke a guarantee", r.Workload, r.Failed, r.Attempted))
		}
	}
}
