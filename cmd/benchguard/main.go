// Command benchguard compares a freshly measured pdqbench result against
// a committed baseline and fails when throughput regresses beyond an
// allowed fraction — the mechanical regression gate behind the CI bench
// job, so dispatch-path slowdowns are caught by the build instead of
// anecdotally.
//
// Usage:
//
//	benchguard -baseline bench/baseline/BENCH_pdq.json \
//	           -current  bench/out/BENCH_pdq.json \
//	           [-max-regress 0.25] [-scaling]
//
// The comparison is intentionally one-sided: a current run is allowed to
// be arbitrarily faster than the baseline (CI machines routinely beat
// the machine that seeded it), and fails only when it drops below
// baseline * (1 - max-regress). On an improvement worth locking in,
// re-seed the baseline by copying the current file over it.
//
// benchguard also sanity-checks that the two results ran the same
// workload shape (strategy, messages, keys, set size, shards, intake
// ring, batch, coalesce, nodes, loss, work, seed) — comparing throughput
// across different workloads would make the gate meaningless.
//
// With -scaling, the two files are BENCH_<strategy>_scaling.json records
// from a pdqbench -procs sweep instead of single results. The workload
// shape and the GOMAXPROCS point sequence must match, each point is held
// to the same one-sided per-point floor, and — baseline aside — the
// current curve itself must not invert: throughput at the highest procs
// point may not drop below throughput at 1 proc (when the sweep includes
// a 1-proc point), so a change that makes the dispatch path scale
// negatively fails even if every point clears its floor. The shape gate
// only applies when the measuring host has at least as many CPUs as the
// highest point (the record's "cpus" field); with fewer, extra Ps are
// scheduling churn and the curve says nothing about the dispatch path.
//
// Exit status: 0 pass, 1 regression, 2 usage or incomparable inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// bench is the subset of pdqbench's result relevant to the gate. Field
// names mirror cmd/pdqbench's stable JSON names.
type bench struct {
	Strategy   string  `json:"strategy"`
	Workers    int     `json:"workers"`
	Messages   int     `json:"messages"`
	Keys       int     `json:"keys"`
	SetSize    int     `json:"set_size"`
	Shards     int     `json:"shards"`
	Ring       int     `json:"intake_ring"`
	Batch      int     `json:"batch"`
	Coalesce   bool    `json:"coalesce"`
	Skew       float64 `json:"skew"`
	PanicRate  float64 `json:"panic_rate"`
	Priorities int     `json:"priorities"`
	DelayFrac  float64 `json:"delay_frac"`
	TTLNanos   int64   `json:"ttl_ns"`
	Nodes      int     `json:"nodes"`
	Loss       float64 `json:"loss"`
	WorkNanos  int64   `json:"work_ns"`
	BlockKeys  int     `json:"blocked_keys"`
	BlockNanos int64   `json:"blocked_ns"`
	Seed       uint64  `json:"seed"`
	Handled    uint64  `json:"handled"`
	Throughput float64 `json:"throughput_msgs_per_sec"`
}

func load(path string) (bench, error) {
	var b bench
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.Throughput <= 0 {
		return b, fmt.Errorf("%s: no throughput recorded", path)
	}
	return b, nil
}

// sameWorkload reports whether two results measured a comparable
// configuration. Workers is compared too: a worker-count change shifts
// throughput for scheduling reasons, not dispatch-path ones.
func sameWorkload(a, b bench) bool {
	return a.Strategy == b.Strategy &&
		a.Workers == b.Workers &&
		a.Messages == b.Messages &&
		a.Keys == b.Keys &&
		a.SetSize == b.SetSize &&
		a.Shards == b.Shards &&
		a.Ring == b.Ring &&
		a.Batch == b.Batch &&
		a.Coalesce == b.Coalesce &&
		a.Skew == b.Skew &&
		a.PanicRate == b.PanicRate &&
		a.Priorities == b.Priorities &&
		a.DelayFrac == b.DelayFrac &&
		a.TTLNanos == b.TTLNanos &&
		a.Nodes == b.Nodes &&
		a.Loss == b.Loss &&
		a.WorkNanos == b.WorkNanos &&
		a.BlockKeys == b.BlockKeys &&
		a.BlockNanos == b.BlockNanos &&
		a.Seed == b.Seed
}

// point is one GOMAXPROCS measurement of a BENCH_<strategy>_scaling.json
// curve (pdqbench -procs sweep).
type point struct {
	Procs      int     `json:"procs"`
	Handled    uint64  `json:"handled"`
	Throughput float64 `json:"throughput_msgs_per_sec"`
}

// scaling is a BENCH_<strategy>_scaling.json record: the workload shape
// at the top level plus the per-procs curve. CPUs describes the
// measuring host, not the workload — it is never compared across files,
// only consulted to decide whether the curve-shape gate is meaningful.
type scaling struct {
	bench
	CPUs   int     `json:"cpus"`
	Points []point `json:"points"`
}

func loadScaling(path string) (scaling, error) {
	var s scaling
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Points) == 0 {
		return s, fmt.Errorf("%s: no scaling points recorded", path)
	}
	for _, p := range s.Points {
		if p.Procs < 1 || p.Throughput <= 0 {
			return s, fmt.Errorf("%s: malformed point %+v", path, p)
		}
	}
	return s, nil
}

// guard gates one single-run comparison. A non-nil error means the
// inputs are incomparable (exit 2 territory); fails counts floor
// violations (exit 1 territory). Progress lines go to w.
func guard(w io.Writer, baseline, current bench, maxRegress float64) (fails int, err error) {
	if !sameWorkload(baseline, current) {
		return 0, fmt.Errorf("workload mismatch — baseline %+v vs current %+v", baseline, current)
	}
	floor := baseline.Throughput * (1 - maxRegress)
	ratio := current.Throughput / baseline.Throughput
	fmt.Fprintf(w, "benchguard: %s  baseline %.0f msg/s  current %.0f msg/s  (%.2fx, floor %.0f)\n",
		baseline.Strategy, baseline.Throughput, current.Throughput, ratio, floor)
	if current.Throughput < floor {
		fmt.Fprintf(w, "benchguard: FAIL — throughput regressed %.1f%% (allowed %.1f%%)\n",
			(1-ratio)*100, maxRegress*100)
		fails++
	}
	return fails, nil
}

// guardScaling gates a scaling curve: shape and procs sequence must match
// the baseline, every point is held to its one-sided floor, and the
// current curve's highest-procs point must not fall below its 1-proc
// point. A non-nil error means the curves are incomparable; fails counts
// gate violations (0 with nil error = pass).
func guardScaling(w io.Writer, baseline, current scaling, maxRegress float64) (fails int, err error) {
	if !sameWorkload(baseline.bench, current.bench) {
		return 0, fmt.Errorf("workload mismatch — baseline %+v vs current %+v",
			baseline.bench, current.bench)
	}
	if len(baseline.Points) != len(current.Points) {
		return 0, fmt.Errorf("procs sweep mismatch — baseline has %d points, current %d",
			len(baseline.Points), len(current.Points))
	}
	for i, b := range baseline.Points {
		c := current.Points[i]
		if b.Procs != c.Procs {
			return 0, fmt.Errorf("procs sweep mismatch at point %d — baseline procs=%d, current procs=%d",
				i, b.Procs, c.Procs)
		}
		floor := b.Throughput * (1 - maxRegress)
		ratio := c.Throughput / b.Throughput
		fmt.Fprintf(w, "benchguard: %s procs=%-3d baseline %.0f msg/s  current %.0f msg/s  (%.2fx, floor %.0f)\n",
			baseline.Strategy, b.Procs, b.Throughput, c.Throughput, ratio, floor)
		if c.Throughput < floor {
			fmt.Fprintf(w, "benchguard: FAIL — procs=%d throughput regressed %.1f%% (allowed %.1f%%)\n",
				b.Procs, (1-ratio)*100, maxRegress*100)
			fails++
		}
	}
	// Curve-shape gate on the current run alone: more CPUs must never
	// yield less throughput than one CPU. Only meaningful when the host
	// can actually run the highest point in parallel — on a machine with
	// fewer CPUs than that GOMAXPROCS value, extra Ps are pure scheduling
	// churn and an "inverted" curve says nothing about the dispatch path,
	// so the gate is skipped (per-point floors above still apply).
	var one, last *point
	for i := range current.Points {
		if current.Points[i].Procs == 1 {
			one = &current.Points[i]
		}
		if last == nil || current.Points[i].Procs >= last.Procs {
			last = &current.Points[i]
		}
	}
	if one != nil && last != nil && last.Procs > 1 && current.CPUs < last.Procs {
		fmt.Fprintf(w, "benchguard: curve-shape gate skipped — host has %d CPUs, sweep peaks at procs=%d\n",
			current.CPUs, last.Procs)
		one = nil
	}
	if one != nil && last != nil && last.Procs > 1 && last.Throughput < one.Throughput {
		fmt.Fprintf(w, "benchguard: FAIL — negative scaling: procs=%d throughput %.0f msg/s below procs=1 throughput %.0f msg/s\n",
			last.Procs, last.Throughput, one.Throughput)
		fails++
	}
	return fails, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline BENCH_*.json")
		currentPath  = flag.String("current", "", "freshly measured BENCH_*.json")
		maxRegress   = flag.Float64("max-regress", 0.25, "allowed fractional throughput regression")
		scalingMode  = flag.Bool("scaling", false, "compare BENCH_<strategy>_scaling.json curves (pdqbench -procs sweeps)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}
	if *maxRegress < 0 || *maxRegress >= 1 {
		fmt.Fprintln(os.Stderr, "benchguard: -max-regress must be in [0, 1)")
		os.Exit(2)
	}
	var fails int
	if *scalingMode {
		baseline, err := loadScaling(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		current, err := loadScaling(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		fails, err = guardScaling(os.Stdout, baseline, current, *maxRegress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
	} else {
		baseline, err := load(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		current, err := load(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		fails, err = guard(os.Stdout, baseline, current, *maxRegress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
	}
	if fails > 0 {
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}
