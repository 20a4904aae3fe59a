package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// workload list in step with the benchmark's description.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
}

// TestSmoke runs every workload tiny, untraced and traced, and checks
// that each run passes its output checks and prints every metric of its
// mode by name with its unit.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				opts, err := parseFlags([]string{"--workload", name, "--seconds", "0.3", "--trace", trace,
					"--smoke", "--out", t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				res, err := runWorkload(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 {
					t.Fatalf("checks failed: %v (failed %d)", res.problems, res.failed)
				}
				_, line, err := render(opts, res)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want a value in %s", d.name, m, d.unit)
					}
				}
				if trace == "0" {
					for name, m := range out.Metrics {
						if *m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, *m.Value)
						}
					}
				}
				if !out.Correct || out.Attempted < 1 {
					t.Errorf("result %+v", out)
				}
			})
		}
	}
}
