package main

import (
	"encoding/base64"
	"encoding/json"
	"os"
	"testing"
)

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// demands zero correctness violations and every metric reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the whole stack")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runPass(makePlan(w, 3, 1.5, traced), passOpts{seed: 3, traced: traced, setups: 1, ladder: traced})
				if err != nil {
					t.Fatal(err)
				}
				if res.violations != 0 || res.failed != 0 {
					t.Fatalf("traced=%v: %d violations, %d failed of %d", traced, res.violations, res.failed, res.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer[:len(perLayer)-len(endToEnd)] // all but the overheads
				}
				for _, d := range defs {
					if _, ok := res.m[d.name]; !ok {
						t.Errorf("traced=%v: metric %s missing", traced, d.name)
					}
				}
				for _, d := range endToEnd {
					if res.m[d.name] <= 0 {
						t.Errorf("traced=%v: end-to-end metric %s = %v", traced, d.name, res.m[d.name])
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
