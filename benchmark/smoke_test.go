package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the driver's description of the benchmark, at the repo
// root. It repeats the tables in main.go and workloads.go.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the oracle is clean and that every metric BENCHMARK.json
// names is emitted with the unit it names. It asserts nothing about time.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := bj.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, e, d)
		}
	}
	cfg := config{seed: 1, segments: 3, setups: 1, shrink: 200, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		if b := bj.Workloads[i]; b.Name != w.name || b.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Errorf("untraced: %d of %d messages failed or broke a guarantee", r.Failed, r.Attempted)
			}
			for _, e := range bj.EndToEnd {
				if m, ok := r.Metrics[e.Name]; !ok || m.Unit != e.Unit {
					t.Errorf("untraced: metric %s [%s] missing, got %+v", e.Name, e.Unit, m)
				}
			}
			// The seventh end-to-end metric, which BENCHMARK.json cannot
			// hold because it is 0.
			if m, ok := r.Metrics[failedFrac]; !ok || m.Unit != "fraction" || m.Value != 0 {
				t.Errorf("untraced: metric %s missing or not 0, got %+v", failedFrac, m)
			}
			if len(r.Metrics) != len(bj.EndToEnd)+1 {
				t.Errorf("untraced: %d metrics emitted, BENCHMARK.json lists %d and %s", len(r.Metrics), len(bj.EndToEnd), failedFrac)
			}
			r, err = measureTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Errorf("traced: %d of %d messages failed or broke a guarantee", r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(bj.PerLayer)+1 {
				t.Errorf("traced: %d metrics emitted, BENCHMARK.json lists %d and %s", len(r.Metrics), len(bj.PerLayer), failedFrac)
			}
			for _, e := range bj.PerLayer {
				if m, ok := r.Metrics[e.Name]; !ok || m.Unit != e.Unit {
					t.Errorf("traced: metric %s [%s] missing, got %+v", e.Name, e.Unit, m)
				}
			}
		})
	}
}
