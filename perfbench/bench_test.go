package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric lists
// a run prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i] {
				t.Errorf("%s %d: BENCHMARK.json says %q, the code %q", what, i, got[i].Name, want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner in the code", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(ws), len(workloads))
	}
}
