package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newWorkload(name, 7)
			c, _ := newWorkload(name, 8)
			if a.digest() != b.digest() {
				t.Error("the same seed gave different inputs")
			}
			if a.digest() == c.digest() {
				t.Error("a different seed gave the same inputs")
			}
		})
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("want an error for an unknown workload")
	}
}

// BENCHMARK.json at the repository root and metrics.json must name the
// same workloads and metrics with the same units and directions, so the
// program reports exactly what the benchmark declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(doc.Workloads) || len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("workload counts differ: BENCHMARK.json %d, metrics.json %d, program %d",
			len(bench.Workloads), len(doc.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w != doc.Workloads[i] || w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.json %+v, program %s", i, w, doc.Workloads[i], workloadNames[i])
		}
	}
	for _, pair := range []struct {
		what      string
		bench, md []metricDef
	}{{"end_to_end", bench.EndToEnd, doc.EndToEnd}, {"per_layer", bench.PerLayer, doc.PerLayer}} {
		if len(pair.bench) != len(pair.md) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.json", pair.what, len(pair.bench), len(pair.md))
			continue
		}
		for i := range pair.bench {
			if pair.bench[i] != pair.md[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %+v", pair.what, i, pair.bench[i], pair.md[i])
			}
		}
	}
}
