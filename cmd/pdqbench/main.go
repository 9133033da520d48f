// Command pdqbench measures the runtime PDQ library against the baseline
// dispatch strategies the paper argues against, on a configurable handler
// workload: in-queue synchronization (pdq) versus per-resource spin locks
// (lock), optimistic abort/retry (oam), and statically partitioned queues
// (multiq). A fifth strategy, cluster, measures the distributed dispatch
// tier: the same workload spread across N node-local queues joined by the
// in-process transport, with consistent-hash key ownership deciding where
// each message executes.
//
// Usage:
//
//	pdqbench [-strategy pdq|lock|oam|multiq|cluster|all] [-workers 8]
//	         [-messages 200000] [-keys 64] [-skew 0] [-work 200]
//	         [-setsize 1] [-shards 1] [-ring 256] [-batch 1] [-coalesce]
//	         [-blockedkeys 0] [-blocked 0] [-panicrate 0] [-priorities 1]
//	         [-delayfrac 0] [-ttl 0] [-nodes 4] [-loss 0] [-procs ""]
//	         [-json .]
//
// skew > 0 draws keys from a Zipf-like distribution (hotspot); work is the
// simulated handler body in nanoseconds of spinning. setsize > 1 gives
// every message a synchronization key set of that many keys (pdq strategy
// only — the baselines have no key-set notion). shards partitions the pdq
// dispatch core (1 = the classic single-queue scan, 0 = derive from
// GOMAXPROCS); it is recorded in BENCH_pdq.json so sharded and unsharded
// runs can be tracked side by side. ring sizes each shard's lock-free
// intake ring (pdq strategy; 0 = mutex-only intake, see pdq.WithIntakeRing);
// the resolved size is recorded as intake_ring in BENCH_pdq.json so
// ring-enabled and mutex-only runs can be told apart. batch > 1 makes each
// pdq pool worker
// dispatch through DequeueBatch/RunBatch in batches of that size
// (WithWorkerBatch), and -coalesce additionally enables WithCoalesce with
// BatchHandler messages, so identical-key runs merge into one handler
// invocation; both are recorded in BENCH_pdq.json, and the batches,
// batch_entries, max_batch, and coalesced counters land there through the
// embedded pdq.Stats. panicrate > 0 makes each handler execution panic
// with that probability (pdq only), exercising the
// recover/Release/retry/dead-letter failure path; the queue runs with
// WithRetry(1) and a no-op dead-letter hook, and the resulting panics,
// retries, and dead_lettered counters land in BENCH_pdq.json.
//
// blockedkeys > 0 marks keys 0..N-1 as blocked streams: their handlers
// sleep for the -blocked duration (instead of spinning -work), modeling
// the paper's blocked-handler scenario — a message stream whose handler
// waits on an external event while holding its resource. The flag applies
// to every strategy identically, so it measures how each organization
// dispatches *around* blocked streams: pdq skips their claimed keys and
// keeps disjoint traffic flowing, lockq workers that dequeue a blocked
// key busy-wait behind it (head-of-line capture), and multiq strands
// every key that shares a partition with a blocked one. Combine with
// -skew to make the blocked streams hot. Incompatible with -coalesce and
// -panicrate, which wrap the per-message handler.
//
// The scheduler flags (pdq only) exercise sched.go: priorities > 1
// spreads messages round-robin across the lowest N priority bands,
// delayfrac > 0 enqueues that fraction of messages with a 1ms delay
// (a seeded draw), and ttl > 0 stamps every message with that TTL (the
// expired counter records any that miss it; pick a generous TTL to
// measure the deadline-tracking overhead without actual expiry). All
// three are recorded in BENCH_pdq.json, and expired/delayed/
// priority_dispatched/timer_wakeups land there through the embedded
// pdq.Stats.
//
// The cluster flags (cluster only) shape the distributed tier: nodes is
// the cluster size (workers then counts dispatch workers per node), and
// loss > 0 injects that per-delivery drop probability into the transport,
// exercising the retransmission path; the cluster's forwarded/spanning/
// redelivered/dupes_dropped counters land in BENCH_cluster.json through
// the embedded cluster.Stats. Throughput for the cluster strategy counts
// handler executions across all nodes after a full Quiesce, so the
// session/forwarding overhead is inside the measured interval. -strategy
// all runs the four single-node strategies; the cluster tier is measured
// explicitly with -strategy cluster.
//
// -procs takes a comma-separated GOMAXPROCS list ("1,2,4,8") and switches
// pdqbench into scaling-sweep mode: each selected strategy runs once per
// point with runtime.GOMAXPROCS pinned to it, and the per-point
// throughputs are written to a single BENCH_<strategy>_scaling.json
// (workload shape at the top level, a "points" array of
// {procs, handled, elapsed_ns, throughput_msgs_per_sec} below it). Sweep
// mode never writes the regular BENCH_<strategy>.json — the pinned-config
// artifacts and the scaling curve are tracked as separate files. The pdq
// sweep requires an explicit -shards >= 1 so the shard count cannot drift
// with the GOMAXPROCS point.
//
// Unless -json is empty, each strategy additionally writes a
// machine-readable BENCH_<strategy>.json file into the given directory
// (throughput plus the full conflict/stall counter surface, and the full
// flag configuration), so the performance trajectory can be tracked
// across revisions. Files are written atomically — marshalled to a
// temporary file in the target directory and renamed into place — so a
// failing later strategy of a -strategy all run can never leave a
// truncated or half-overwritten BENCH_<strategy>.json behind.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pdq"
	"pdq/cluster"
	"pdq/internal/lockq"
	"pdq/internal/multiq"
	"pdq/internal/sim"
)

type config struct {
	workers    int
	messages   int
	keys       int
	setSize    int
	shards     int
	ring       int
	batch      int
	coalesce   bool
	skew       float64
	panicRate  float64
	work       time.Duration
	blockKeys  int
	blockTime  time.Duration
	seed       uint64
	priorities int
	delayFrac  float64
	ttl        time.Duration
	nodes      int
	loss       float64
	trace      float64
}

// result is the machine-readable record written to BENCH_<strategy>.json.
type result struct {
	Strategy   string  `json:"strategy"`
	Workers    int     `json:"workers"`
	Messages   int     `json:"messages"`
	Keys       int     `json:"keys"`
	SetSize    int     `json:"set_size"`
	Shards     int     `json:"shards"`                // resolved shard count (pdq strategy)
	Ring       int     `json:"intake_ring,omitempty"` // resolved per-shard intake-ring size (pdq strategy)
	Batch      int     `json:"batch"`                 // worker dispatch batch size (pdq strategy)
	Coalesce   bool    `json:"coalesce"`              // identical-key runs merged (pdq strategy)
	Skew       float64 `json:"skew"`
	PanicRate  float64 `json:"panic_rate,omitempty"` // injected handler failure probability (pdq strategy)
	Priorities int     `json:"priorities,omitempty"` // priority bands in use (pdq strategy)
	DelayFrac  float64 `json:"delay_frac,omitempty"` // fraction of messages enqueued with a 1ms delay (pdq strategy)
	TTLNanos   int64   `json:"ttl_ns,omitempty"`     // per-message TTL (pdq strategy)
	TraceRate  float64 `json:"trace_rate,omitempty"` // lifecycle trace sampling rate (pdq strategy; omitted when tracing is off, so A/B shapes match)
	Nodes      int     `json:"nodes,omitempty"`      // cluster size (cluster strategy)
	Loss       float64 `json:"loss,omitempty"`       // injected transport loss probability (cluster strategy)
	WorkNanos  int64   `json:"work_ns"`
	BlockKeys  int     `json:"blocked_keys,omitempty"` // keys 0..N-1 are blocked streams
	BlockNanos int64   `json:"blocked_ns,omitempty"`   // blocked-stream handler sleep
	Seed       uint64  `json:"seed"`
	ElapsedNS  int64   `json:"elapsed_ns"`
	Handled    uint64  `json:"handled"`
	Throughput float64 `json:"throughput_msgs_per_sec"`

	// Strategy-specific counters.
	PDQ       *pdq.Stats     `json:"pdq_stats,omitempty"`
	SpinLoops uint64         `json:"spin_loops,omitempty"`    // lock strategy busy-wait iterations
	Aborts    uint64         `json:"aborts,omitempty"`        // oam strategy retried dispatches
	Imbalance float64        `json:"imbalance,omitempty"`     // multiq busiest/mean partitions
	Cluster   *cluster.Stats `json:"cluster_stats,omitempty"` // cluster strategy full counter surface
}

func main() {
	var (
		strategy   = flag.String("strategy", "all", "pdq, lock, oam, multiq, or all")
		workers    = flag.Int("workers", 8, "worker goroutines / partitions")
		messages   = flag.Int("messages", 200_000, "messages to dispatch")
		keys       = flag.Int("keys", 64, "distinct synchronization keys")
		setSize    = flag.Int("setsize", 1, "keys per message key set (pdq only)")
		shards     = flag.Int("shards", 1, "pdq dispatch shards (0 = GOMAXPROCS-derived, pdq only)")
		ring       = flag.Int("ring", pdq.DefaultIntakeRing, "per-shard intake ring size (0 = mutex-only intake, pdq only)")
		batch      = flag.Int("batch", 1, "pdq worker dispatch batch size (pdq only)")
		coalesce   = flag.Bool("coalesce", false, "merge identical-key runs into one handler invocation (pdq only)")
		skew       = flag.Float64("skew", 0, "Zipf skew of key popularity (0 = uniform)")
		panicRate  = flag.Float64("panicrate", 0, "probability a handler execution panics (pdq only)")
		work       = flag.Duration("work", 200*time.Nanosecond, "handler body duration")
		blockKeys  = flag.Int("blockedkeys", 0, "keys 0..N-1 are blocked streams whose handlers sleep -blocked")
		blockTime  = flag.Duration("blocked", 0, "blocked-stream handler sleep duration")
		seed       = flag.Uint64("seed", 7, "key sequence seed")
		priorities = flag.Int("priorities", 1, "spread messages round-robin over the lowest N priority bands (pdq only)")
		delayFrac  = flag.Float64("delayfrac", 0, "fraction of messages enqueued with a 1ms delay (pdq only)")
		ttl        = flag.Duration("ttl", 0, "per-message TTL, 0 = none (pdq only)")
		nodes      = flag.Int("nodes", 4, "cluster size; workers counts per node (cluster only)")
		loss       = flag.Float64("loss", 0, "injected transport loss probability (cluster only)")
		trace      = flag.Float64("trace", 0, "lifecycle trace sampling rate in (0,1], 0 = off (pdq only)")
		procs      = flag.String("procs", "", "comma-separated GOMAXPROCS sweep, e.g. 1,2,4,8 (writes BENCH_<strategy>_scaling.json instead of the regular files)")
		jsonDir    = flag.String("json", ".", "directory for BENCH_<strategy>.json files (empty = disabled)")
	)
	flag.Parse()
	cfg := config{*workers, *messages, *keys, *setSize, *shards, *ring, *batch, *coalesce, *skew, *panicRate, *work, *blockKeys, *blockTime, *seed, *priorities, *delayFrac, *ttl, *nodes, *loss, *trace}
	procsList, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdqbench:", err)
		os.Exit(1)
	}
	names := []string{"pdq", "lock", "oam", "multiq"}
	if *strategy != "all" {
		names = []string{*strategy}
	}
	if cfg.setSize < 1 {
		cfg.setSize = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	pdqOnly := func(flagDesc string) {
		if len(names) != 1 || names[0] != "pdq" {
			fmt.Fprintf(os.Stderr, "pdqbench: %s requires -strategy pdq\n", flagDesc)
			os.Exit(1)
		}
	}
	if cfg.setSize > 1 && (len(names) != 1 || (names[0] != "pdq" && names[0] != "cluster")) {
		// Key sets exist in the pdq core and the cluster tier; the
		// baselines have no key-set notion.
		fmt.Fprintln(os.Stderr, "pdqbench: -setsize > 1 requires -strategy pdq or cluster")
		os.Exit(1)
	}
	if cfg.loss > 0 && (len(names) != 1 || names[0] != "cluster") {
		fmt.Fprintln(os.Stderr, "pdqbench: -loss > 0 requires -strategy cluster")
		os.Exit(1)
	}
	if cfg.panicRate > 0 {
		pdqOnly("-panicrate > 0")
	}
	if cfg.blockKeys < 0 {
		cfg.blockKeys = 0
	}
	if cfg.blockKeys > 0 && (cfg.coalesce || cfg.panicRate > 0) {
		// Both wrap the per-message handler; mixing them with the blocked
		// stream split would make the injected behavior key-dependent.
		fmt.Fprintln(os.Stderr, "pdqbench: -blockedkeys is incompatible with -coalesce and -panicrate")
		os.Exit(1)
	}
	if cfg.priorities < 1 {
		cfg.priorities = 1
	}
	if cfg.priorities > pdq.NumPriorities {
		cfg.priorities = pdq.NumPriorities
	}
	if cfg.priorities > 1 {
		pdqOnly("-priorities > 1")
	}
	if cfg.delayFrac > 0 {
		pdqOnly("-delayfrac > 0")
	}
	if cfg.ttl > 0 {
		pdqOnly("-ttl > 0")
	}
	if cfg.trace > 0 {
		pdqOnly("-trace > 0")
	}
	if cfg.batch > 1 {
		pdqOnly("-batch > 1")
	}
	if cfg.coalesce {
		pdqOnly("-coalesce")
		if cfg.panicRate > 0 {
			// The failure injection wraps the per-message handler; wiring it
			// through coalesced BatchHandler invocations would make the
			// injected rate depend on merge luck. Keep the two modes apart.
			fmt.Fprintln(os.Stderr, "pdqbench: -coalesce is incompatible with -panicrate")
			os.Exit(1)
		}
	}
	if len(procsList) > 0 {
		for _, name := range names {
			if name == "pdq" && cfg.shards < 1 {
				// WithShards(0) derives the shard count from GOMAXPROCS, which
				// the sweep changes per point; the curve would then compare
				// different dispatch cores, not the same core under more CPUs.
				fmt.Fprintln(os.Stderr, "pdqbench: -procs with -strategy pdq requires an explicit -shards >= 1")
				os.Exit(1)
			}
			sr, err := runSweep(name, cfg, procsList)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pdqbench:", err)
				os.Exit(1)
			}
			if *jsonDir != "" {
				if err := writeFileAtomic(*jsonDir, "BENCH_"+name+"_scaling.json", sr); err != nil {
					fmt.Fprintln(os.Stderr, "pdqbench:", err)
					os.Exit(1)
				}
			}
		}
		return
	}
	for _, name := range names {
		res, err := runStrategy(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdqbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%-8s %9d msgs  %10v  %7.2f M msg/s\n", name, res.Handled,
			time.Duration(res.ElapsedNS).Round(time.Millisecond), res.Throughput/1e6)
		if res.Imbalance > 0 {
			fmt.Printf("         partition imbalance %.2fx (max/mean)\n", res.Imbalance)
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "pdqbench:", err)
				os.Exit(1)
			}
		}
	}
}

// parseProcs parses the -procs comma list into GOMAXPROCS points.
func parseProcs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ps []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("invalid -procs point %q (want a positive integer list like 1,2,4)", f)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// scalingPoint is one GOMAXPROCS measurement of a -procs sweep.
type scalingPoint struct {
	Procs      int     `json:"procs"`
	Handled    uint64  `json:"handled"`
	ElapsedNS  int64   `json:"elapsed_ns"`
	Throughput float64 `json:"throughput_msgs_per_sec"`
}

// scalingResult is the machine-readable record written to
// BENCH_<strategy>_scaling.json: the workload shape once at the top
// level (the same stable field names as result, so cmd/benchguard can
// reuse its shape check) and one point per GOMAXPROCS value.
type scalingResult struct {
	Strategy   string  `json:"strategy"`
	Workers    int     `json:"workers"`
	Messages   int     `json:"messages"`
	Keys       int     `json:"keys"`
	SetSize    int     `json:"set_size"`
	Shards     int     `json:"shards"`
	Ring       int     `json:"intake_ring,omitempty"`
	Batch      int     `json:"batch"`
	Coalesce   bool    `json:"coalesce"`
	Skew       float64 `json:"skew"`
	PanicRate  float64 `json:"panic_rate,omitempty"`
	Priorities int     `json:"priorities,omitempty"`
	DelayFrac  float64 `json:"delay_frac,omitempty"`
	TTLNanos   int64   `json:"ttl_ns,omitempty"`
	TraceRate  float64 `json:"trace_rate,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Loss       float64 `json:"loss,omitempty"`
	WorkNanos  int64   `json:"work_ns"`
	Seed       uint64  `json:"seed"`
	// CPUs records the measuring host's CPU count. It describes the
	// machine rather than the workload (benchguard does not compare it
	// across files), but lets curve-shape checks skip hosts that cannot
	// physically scale to the sweep's highest GOMAXPROCS point.
	CPUs   int            `json:"cpus"`
	Points []scalingPoint `json:"points"`
}

// runSweep measures one strategy across the GOMAXPROCS points, restoring
// the original GOMAXPROCS when done.
func runSweep(name string, cfg config, procs []int) (scalingResult, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var sr scalingResult
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		res, err := runStrategy(name, cfg)
		if err != nil {
			return sr, fmt.Errorf("sweep point -procs %d: %w", p, err)
		}
		if i == 0 {
			sr = scalingResult{
				Strategy: res.Strategy, Workers: res.Workers,
				Messages: res.Messages, Keys: res.Keys,
				SetSize: res.SetSize, Shards: res.Shards, Ring: res.Ring,
				Batch: res.Batch, Coalesce: res.Coalesce, Skew: res.Skew,
				PanicRate: res.PanicRate, Priorities: res.Priorities,
				DelayFrac: res.DelayFrac, TTLNanos: res.TTLNanos,
				TraceRate: res.TraceRate,
				Nodes:     res.Nodes, Loss: res.Loss,
				WorkNanos: res.WorkNanos, Seed: res.Seed,
				CPUs: runtime.NumCPU(),
			}
		}
		sr.Points = append(sr.Points, scalingPoint{
			Procs: p, Handled: res.Handled, ElapsedNS: res.ElapsedNS,
			Throughput: res.Throughput,
		})
		fmt.Printf("%-8s procs=%-3d %9d msgs  %10v  %7.2f M msg/s\n", name, p,
			res.Handled, time.Duration(res.ElapsedNS).Round(time.Millisecond),
			res.Throughput/1e6)
	}
	return sr, nil
}

// writeJSON records res as BENCH_<strategy>.json in dir.
func writeJSON(dir string, res result) error {
	return writeFileAtomic(dir, "BENCH_"+res.Strategy+".json", res)
}

// writeFileAtomic marshals v as indented JSON into dir/name, creating dir
// if needed. The write is atomic — a temporary file in dir renamed into
// place — so an interrupted or failing run (e.g. a later strategy of a
// -strategy all sweep crashing mid-write) can never leave a truncated
// file where a previous revision's complete one stood.
func writeFileAtomic(dir, name string, v any) (err error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name()) // best effort; never mask the write error
		}
	}()
	if _, err = tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// keySeq precomputes the message key sequence so every strategy sees the
// identical workload.
func keySeq(cfg config) []uint64 {
	rng := sim.NewRand(cfg.seed)
	ks := make([]uint64, cfg.messages*cfg.setSize)
	for i := range ks {
		if cfg.skew > 0 {
			ks[i] = uint64(rng.Zipf(cfg.keys, cfg.skew))
		} else {
			ks[i] = uint64(rng.Intn(cfg.keys))
		}
	}
	return ks
}

// spin simulates handler work without sleeping (scheduler-independent).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func runStrategy(name string, cfg config) (result, error) {
	ks := keySeq(cfg)
	handler := func(any) { spin(cfg.work) }
	// Blocked streams: keys below blockKeys sleep instead of spinning —
	// the same handler split for every strategy, so the comparison
	// measures each organization's ability to dispatch around them.
	blockHandler := func(any) { time.Sleep(cfg.blockTime) }
	blockedKey := func(k uint64) bool {
		return cfg.blockKeys > 0 && cfg.blockTime > 0 && k < uint64(cfg.blockKeys)
	}
	pick := func(k uint64) func(any) {
		if blockedKey(k) {
			return blockHandler
		}
		return handler
	}
	res := result{
		Strategy: name, Workers: cfg.workers, Messages: cfg.messages,
		Keys: cfg.keys, SetSize: cfg.setSize, Skew: cfg.skew,
		Batch: cfg.batch, Coalesce: cfg.coalesce,
		PanicRate:  cfg.panicRate,
		Priorities: cfg.priorities, DelayFrac: cfg.delayFrac,
		TTLNanos: cfg.ttl.Nanoseconds(), TraceRate: cfg.trace,
		WorkNanos: cfg.work.Nanoseconds(),
		BlockKeys: cfg.blockKeys, BlockNanos: cfg.blockTime.Nanoseconds(),
		Seed: cfg.seed,
	}
	finish := func(start time.Time, handled uint64) {
		elapsed := time.Since(start)
		res.ElapsedNS = elapsed.Nanoseconds()
		res.Handled = handled
		res.Throughput = float64(handled) / elapsed.Seconds()
	}
	switch name {
	case "pdq":
		opts := []pdq.Option{pdq.WithShards(cfg.shards), pdq.WithIntakeRing(cfg.ring)}
		if cfg.trace > 0 {
			opts = append(opts, pdq.WithTrace(cfg.trace))
		}
		if cfg.panicRate > 0 {
			// Failure injection: each execution panics with probability
			// panicrate (a seeded per-execution draw; the exact failure
			// count still varies run to run because retries add
			// scheduling-dependent executions). One retry per entry, then
			// a silent dead-letter; the full panics/released/retries/
			// dead_lettered counter surface lands in BENCH_pdq.json via
			// the embedded pdq.Stats.
			var ctr atomic.Uint64
			base := handler
			handler = func(d any) {
				base(d)
				// A counter-seeded one-shot sim.Rand gives a goroutine-safe
				// draw from the project's one canonical PRNG.
				if sim.NewRand(ctr.Add(1) ^ cfg.seed).Pick(cfg.panicRate) {
					panic("pdqbench: injected handler failure")
				}
			}
			opts = append(opts,
				pdq.WithRetry(1),
				pdq.WithDeadLetter(func(pdq.Message, error) {}))
		}
		// Coalescing counts handled messages in the handler itself: a
		// merged invocation completes one entry but handles many messages,
		// so stats.Completed undercounts the work done.
		var coalesced atomic.Uint64
		var batchHandler func(datas []any)
		if cfg.coalesce {
			opts = append(opts, pdq.WithCoalesce(0))
			base := handler
			batchHandler = func(datas []any) {
				for _, d := range datas {
					base(d)
				}
				coalesced.Add(uint64(len(datas)))
			}
		}
		q := pdq.New(opts...)
		// Scheduler shaping (sched.go): bands round-robin, a seeded draw
		// for 1ms-delayed messages, and a per-message TTL. Option values
		// are prebuilt so the enqueue loop only appends.
		prioOpts := make([]pdq.EnqueueOption, cfg.priorities)
		for b := range prioOpts {
			prioOpts[b] = pdq.WithPriority(b)
		}
		delayOpt := pdq.WithDelay(time.Millisecond)
		ttlOpt := pdq.WithTTL(cfg.ttl)
		delayRng := sim.NewRand(cfg.seed ^ 0xd1a7)
		eopts := make([]pdq.EnqueueOption, 0, 4)
		start := time.Now()
		p := pdq.Serve(context.Background(), q, cfg.workers, pdq.WithWorkerBatch(cfg.batch))
		set := make([]pdq.Key, cfg.setSize)
		for i := 0; i < cfg.messages; i++ {
			for j := range set {
				set[j] = pdq.Key(ks[i*cfg.setSize+j])
			}
			eopts = eopts[:0]
			h := pick(ks[i*cfg.setSize])
			if cfg.coalesce {
				h = nil
				eopts = append(eopts, pdq.BatchHandler(batchHandler))
			}
			eopts = append(eopts, pdq.WithKeys(set...))
			if cfg.priorities > 1 {
				eopts = append(eopts, prioOpts[i%cfg.priorities])
			}
			if cfg.delayFrac > 0 && delayRng.Pick(cfg.delayFrac) {
				eopts = append(eopts, delayOpt)
			}
			if cfg.ttl > 0 {
				eopts = append(eopts, ttlOpt)
			}
			if err := q.Enqueue(h, eopts...); err != nil {
				return res, err
			}
		}
		q.Close()
		p.Wait()
		stats := q.Stats()
		handled := stats.Completed
		if cfg.coalesce {
			handled = coalesced.Load()
		}
		finish(start, handled)
		res.PDQ = &stats
		res.Shards = stats.Shards
		res.Ring = stats.IntakeRing
		return res, nil
	case "cluster":
		n := cfg.nodes
		if n < 1 {
			n = 1
		}
		topts := []cluster.ChanOption{cluster.WithChanSeed(cfg.seed)}
		copts := []cluster.Option{cluster.WithWorkers(cfg.workers)}
		if cfg.loss > 0 {
			topts = append(topts, cluster.WithLoss(cfg.loss))
			// Under injected loss the retransmit timer is on the critical
			// path; tighten it so the measurement reflects repair cost,
			// not the idle default.
			copts = append(copts, cluster.WithRetransmitTimeout(2*time.Millisecond))
		}
		copts = append(copts, cluster.WithTransport(cluster.NewChanTransport(n, topts...)))
		cl, err := cluster.New(n, copts...)
		if err != nil {
			return res, err
		}
		if err := cl.Register("work", handler); err != nil {
			return res, err
		}
		if err := cl.Register("blocked", blockHandler); err != nil {
			return res, err
		}
		start := time.Now()
		set := make([]pdq.Key, cfg.setSize)
		for i := 0; i < cfg.messages; i++ {
			for j := range set {
				set[j] = pdq.Key(ks[i*cfg.setSize+j])
			}
			hname := "work"
			if blockedKey(ks[i*cfg.setSize]) {
				hname = "blocked"
			}
			if err := cl.Enqueue(i%n, hname, nil, set...); err != nil {
				return res, err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := cl.Quiesce(ctx); err != nil {
			return res, fmt.Errorf("cluster quiesce: %w", err)
		}
		cs := cl.Stats()
		finish(start, cs.Executed)
		cl.Close()
		res.Nodes = n
		res.Loss = cfg.loss
		res.Cluster = &cs
		return res, nil
	case "lock", "oam":
		strat := lockq.SpinLock
		if name == "oam" {
			strat = lockq.Optimistic
		}
		q := lockq.New(strat)
		start := time.Now()
		done := make(chan struct{})
		go func() { q.Serve(cfg.workers, 4); close(done) }()
		for _, k := range ks {
			if err := q.Enqueue(k, pick(k), nil); err != nil {
				return res, err
			}
		}
		q.Close()
		<-done
		s := q.Stats()
		finish(start, s.Handled)
		res.SpinLoops = s.SpinLoops
		res.Aborts = s.Aborts
		return res, nil
	case "multiq":
		q := multiq.New(cfg.workers)
		start := time.Now()
		done := make(chan struct{})
		go func() { q.Serve(); close(done) }()
		for _, k := range ks {
			if err := q.Enqueue(k, pick(k), nil); err != nil {
				return res, err
			}
		}
		q.Close()
		<-done
		s := q.Stats()
		finish(start, s.Handled)
		res.Imbalance = s.Imbalance()
		return res, nil
	default:
		return res, fmt.Errorf("unknown strategy %q", name)
	}
}
