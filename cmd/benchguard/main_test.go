package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// base returns a filled-in workload shape; throughput varies per test.
func base(throughput float64) bench {
	return bench{
		Strategy: "pdq", Workers: 8, Messages: 100000, Keys: 64,
		SetSize: 1, Shards: 4, Ring: 256, Batch: 1,
		WorkNanos: 200, Seed: 7, Handled: 100000, Throughput: throughput,
	}
}

func TestGuardFloor(t *testing.T) {
	bl := base(1_000_000)
	for _, tc := range []struct {
		name       string
		current    float64
		maxRegress float64
		fails      int
	}{
		{"pass_equal", 1_000_000, 0.25, 0},
		{"pass_faster", 3_000_000, 0.25, 0},
		{"pass_at_floor", 750_000, 0.25, 0},
		{"fail_below_floor", 749_999, 0.25, 1},
		{"fail_zero_tolerance", 999_999, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := base(tc.current)
			fails, err := guard(io.Discard, bl, cur, tc.maxRegress)
			if err != nil {
				t.Fatalf("guard: %v", err)
			}
			if fails != tc.fails {
				t.Errorf("guard(current=%.0f, maxRegress=%.2f) fails = %d, want %d",
					tc.current, tc.maxRegress, fails, tc.fails)
			}
		})
	}
}

func TestGuardWorkloadMismatch(t *testing.T) {
	bl := base(1_000_000)
	cur := base(1_000_000)
	cur.Keys = 128
	if _, err := guard(io.Discard, bl, cur, 0.25); err == nil {
		t.Fatal("guard accepted mismatched workloads")
	}
}

// curve builds a scaling record over the given (procs, throughput) pairs
// on a host with the given CPU count.
func curve(cpus int, pts ...float64) scaling {
	s := scaling{bench: base(pts[len(pts)-1]), CPUs: cpus}
	for i := 0; i < len(pts); i += 2 {
		s.Points = append(s.Points, point{
			Procs: int(pts[i]), Handled: 1000, Throughput: pts[i+1],
		})
	}
	return s
}

func TestGuardScaling(t *testing.T) {
	bl := curve(8, 1, 1_000_000, 4, 3_000_000, 8, 5_000_000)

	t.Run("pass", func(t *testing.T) {
		fails, err := guardScaling(io.Discard, bl, bl, 0.25)
		if err != nil || fails != 0 {
			t.Fatalf("identical curves: fails=%d err=%v", fails, err)
		}
	})

	t.Run("per_point_floor", func(t *testing.T) {
		cur := curve(8, 1, 1_000_000, 4, 2_000_000, 8, 5_000_000) // procs=4 dropped 33%
		fails, err := guardScaling(io.Discard, bl, cur, 0.25)
		if err != nil {
			t.Fatalf("guardScaling: %v", err)
		}
		if fails != 1 {
			t.Errorf("fails = %d, want 1 (procs=4 below floor)", fails)
		}
	})

	t.Run("curve_inversion", func(t *testing.T) {
		// Every point clears its 25% floor, but the curve now bends down:
		// 8 procs slower than 1 proc.
		invertedBl := curve(8, 1, 1_000_000, 8, 1_100_000)
		cur := curve(8, 1, 1_000_000, 8, 900_000)
		fails, err := guardScaling(io.Discard, invertedBl, cur, 0.25)
		if err != nil {
			t.Fatalf("guardScaling: %v", err)
		}
		if fails != 1 {
			t.Errorf("fails = %d, want 1 (negative scaling)", fails)
		}
	})

	t.Run("inversion_gate_skipped_on_small_host", func(t *testing.T) {
		// Same inverted curve, but the host has fewer CPUs than the peak
		// procs point: the shape says nothing, only floors apply.
		invertedBl := curve(2, 1, 1_000_000, 8, 1_100_000)
		cur := curve(2, 1, 1_000_000, 8, 900_000)
		var out strings.Builder
		fails, err := guardScaling(&out, invertedBl, cur, 0.25)
		if err != nil {
			t.Fatalf("guardScaling: %v", err)
		}
		if fails != 0 {
			t.Errorf("fails = %d, want 0 (gate skipped, floors clear)", fails)
		}
		if !strings.Contains(out.String(), "curve-shape gate skipped") {
			t.Errorf("missing skip notice in output:\n%s", out.String())
		}
	})

	t.Run("sweep_length_mismatch", func(t *testing.T) {
		cur := curve(8, 1, 1_000_000, 8, 5_000_000)
		if _, err := guardScaling(io.Discard, bl, cur, 0.25); err == nil {
			t.Fatal("guardScaling accepted curves with different point counts")
		}
	})

	t.Run("sweep_procs_mismatch", func(t *testing.T) {
		cur := curve(8, 1, 1_000_000, 2, 3_000_000, 8, 5_000_000)
		if _, err := guardScaling(io.Discard, bl, cur, 0.25); err == nil {
			t.Fatal("guardScaling accepted curves with different procs sequences")
		}
	})

	t.Run("workload_mismatch", func(t *testing.T) {
		cur := curve(8, 1, 1_000_000, 4, 3_000_000, 8, 5_000_000)
		cur.Shards = 16
		if _, err := guardScaling(io.Discard, bl, cur, 0.25); err == nil {
			t.Fatal("guardScaling accepted mismatched workloads")
		}
	})
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		p := writeTemp(t, "ok.json", `{"strategy":"pdq","throughput_msgs_per_sec":123.5}`)
		b, err := load(p)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if b.Strategy != "pdq" || b.Throughput != 123.5 {
			t.Errorf("load = %+v", b)
		}
	})
	t.Run("missing_file", func(t *testing.T) {
		if _, err := load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
			t.Fatal("load accepted a missing file")
		}
	})
	t.Run("malformed_json", func(t *testing.T) {
		p := writeTemp(t, "bad.json", `{"strategy":"pdq",`)
		if _, err := load(p); err == nil {
			t.Fatal("load accepted truncated JSON")
		}
	})
	t.Run("no_throughput", func(t *testing.T) {
		p := writeTemp(t, "zero.json", `{"strategy":"pdq"}`)
		if _, err := load(p); err == nil {
			t.Fatal("load accepted a result without throughput")
		}
	})
}

func TestLoadScaling(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		p := writeTemp(t, "ok.json",
			`{"strategy":"pdq","cpus":8,"points":[{"procs":1,"throughput_msgs_per_sec":10}]}`)
		s, err := loadScaling(p)
		if err != nil {
			t.Fatalf("loadScaling: %v", err)
		}
		if s.CPUs != 8 || len(s.Points) != 1 {
			t.Errorf("loadScaling = %+v", s)
		}
	})
	t.Run("no_points", func(t *testing.T) {
		p := writeTemp(t, "empty.json", `{"strategy":"pdq","points":[]}`)
		if _, err := loadScaling(p); err == nil {
			t.Fatal("loadScaling accepted a record without points")
		}
	})
	t.Run("malformed_point", func(t *testing.T) {
		p := writeTemp(t, "bad.json",
			`{"strategy":"pdq","points":[{"procs":0,"throughput_msgs_per_sec":10}]}`)
		if _, err := loadScaling(p); err == nil {
			t.Fatal("loadScaling accepted a zero-procs point")
		}
	})
}
