package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the harness to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks each run is correct and emits exactly the metrics BENCHMARK.json
// declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(benchWorkloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(options{workload: w.Name, seed: 7, scale: 0.01, traced: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d",
					w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}
