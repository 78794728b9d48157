package benchmarks

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json (at the repository root, one
// directory up) and the harness's own tables from drifting apart: the
// file is what the driver validates, the tables are what ctpmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []MetricDef `json:"end_to_end"`
		PerLayer []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(Specs) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(Specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d: declared %q / %q, harness has %q / %q", i, w.Name, w.Why, Specs[i].Name, Specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n declared %+v\n harness  %+v", decl.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n declared %+v\n harness  %+v", decl.PerLayer, PerLayer)
	}
	if len(decl.PerLayer) > 128 || len(decl.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(decl.EndToEnd), len(decl.PerLayer))
	}
	hasSetup := false
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
