package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the self-test checks against.
type manifest struct {
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

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func toyRun(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 1e-3, trace: trace, sz: toySizes, log: io.Discard})
	if err != nil {
		t.Fatalf("%s seed %d trace=%v: %v", workload, seed, trace, err)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: attempted=%d failed=%d", workload, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts res reports exactly the named metrics, each with
// its declared unit.
func checkMetrics(t *testing.T, workload string, res *result, want map[string]string) {
	t.Helper()
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s reports %s, which BENCHMARK.json does not name", workload, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("%s reports %d metrics, BENCHMARK.json names %d: %v", workload, len(got), len(want), got)
	}
}

// TestToyWorkloads runs every workload at toy sizes: every metric
// BENCHMARK.json names is printed with its unit, a traced run (whose
// traced and untraced passes must already agree) reproduces the
// untraced digest, and another seed changes it.
func TestToyWorkloads(t *testing.T) {
	m := readManifest(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, x := range m.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	for _, x := range m.PerLayer {
		layers[x.Name] = x.Unit
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := toyRun(t, w.Name, 1, false)
			checkMetrics(t, w.Name, plain, e2e)
			traced := toyRun(t, w.Name, 1, true)
			checkMetrics(t, w.Name, traced, layers)
			if traced.digest != plain.digest {
				t.Errorf("traced digest %016x != untraced %016x", traced.digest, plain.digest)
			}
			if other := toyRun(t, w.Name, 2, false); other.digest == plain.digest {
				t.Errorf("seeds 1 and 2 give the same digest %016x", plain.digest)
			}
		})
	}
}
