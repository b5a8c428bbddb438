package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smoke runs one workload at tiny scale.
func smoke(t *testing.T, w workloadDef, traced bool, tamper tamperFunc) *result {
	t.Helper()
	res, err := run(context.Background(), w, tinyScale, 7, 600*time.Millisecond, traced, t.TempDir(), tamper)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestEveryMetricReported runs every workload untraced and traced and
// checks the contract line: every named metric present with its unit,
// end-to-end values non-zero, answers correct.
func TestEveryMetricReported(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smoke(t, w, traced, nil)
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d errors=%v",
					w.name, traced, res.correct, res.failed, res.attempted, res.errors)
			}
			out := res.output()
			ms := out["metrics"].(map[string]metric)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(ms) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(ms), len(want))
			}
			for _, s := range want {
				m, ok := ms[s.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, s.name, m.Unit, s.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
		}
	}
}

// TestOracleGateTrips corrupts answers in a bench-side wrapper, with no
// program change, and expects every workload's gate to fail the run.
func TestOracleGateTrips(t *testing.T) {
	extraCell := func(op string, a *answer) {
		if op == "psi" || op == "final" {
			a.cells = append(a.cells, a.cells[0]+1)
		}
	}
	for _, w := range workloads {
		res := smoke(t, w, false, extraCell)
		if res.correct || res.mismatches == 0 {
			t.Errorf("%s: corrupted answers passed the oracle gate (mismatches=%d)", w.name, res.mismatches)
		}
		out := res.output()
		if out["correct"] != false || out["failed"].(int) == 0 {
			t.Errorf("%s: contract line %v does not report the failure", w.name, out)
		}
	}
}

// TestLayerPartition checks the interval arithmetic the per-layer
// breakdown rests on.
func TestLayerPartition(t *testing.T) {
	iv := []interval{{0, 10}, {5, 15}, {20, 30}}
	if got := length(iv); got != 25 {
		t.Fatalf("length = %d, want 25", got)
	}
	b := newBreakdown("a", "b")
	b.add(100, map[string]int64{"a": 30, "b": 50})
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	b.add(100, map[string]int64{"a": 80, "b": 50})
	if err := b.check(); err == nil {
		t.Fatal("layers claiming more than the span passed the sum check")
	}
	b = newBreakdown("a")
	b.add(100, map[string]int64{"a": -10})
	if err := b.check(); err == nil {
		t.Fatal("a negative layer self time passed the sum check")
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the metric tables
// the binary prints to the same names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, binary %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, cfg.Workloads[i].Name, w.name)
		}
	}
}
