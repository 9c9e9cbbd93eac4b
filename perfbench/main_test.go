package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(set.json), len(set.defs))
			continue
		}
		for i, m := range set.json {
			if d := set.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

func TestDistinctHaloInit(t *testing.T) {
	// Halos repeat with period 3 over 12 points; k=3 needs offset 0 only
	// when stride 4 lands on distinct halos: 0,4,8 -> 0,1,2.
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	if got := distinctHaloInit(labels, 3); got != 0 {
		t.Errorf("offset = %d, want 0", got)
	}
	// All points in one halo: no start has k distinct halos.
	if got := distinctHaloInit(make([]int, 12), 3); got != 0 {
		t.Errorf("offset = %d, want the fallback 0", got)
	}
	// Offset 1 is the first whose samples (1,5,9 -> 1,0,2) are distinct.
	labels = []int{0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0}
	if got := distinctHaloInit(labels, 3); got != 1 {
		t.Errorf("offset = %d, want 1", got)
	}
}
