package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// manifest is the part of BENCHMARK.json the harness must agree with.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload traced at 1/4 scale with two passes and
// checks what it emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i])
		}
	}

	picks := map[string]float64{}
	for _, name := range workloads {
		out := filepath.Join(t.TempDir(), "trace.json")
		res, err := runWorkload(options{workload: name, seed: 7, seconds: 1, trace: true,
			traceOut: out, scale: 0.25, passes: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
		}
		if len(res.Checksums) != 2 || res.Checksums[0] != res.Checksums[1] {
			t.Errorf("%s: pass checksums %x", name, res.Checksums)
		}
		if len(res.EndToEnd) != len(mf.EndToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, BENCHMARK.json has %d", name, len(res.EndToEnd), len(mf.EndToEnd))
		}
		for i, m := range res.EndToEnd {
			if m.Name != mf.EndToEnd[i].Name || m.Unit != mf.EndToEnd[i].Unit {
				t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json has %s [%s]",
					name, i, m.Name, m.Unit, mf.EndToEnd[i].Name, mf.EndToEnd[i].Unit)
			}
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want finite and positive", name, m.Name, m.Value)
			}
		}
		if len(res.PerLayer) != len(mf.PerLayer) {
			t.Fatalf("%s: %d per-layer metrics, BENCHMARK.json has %d", name, len(res.PerLayer), len(mf.PerLayer))
		}
		for i, m := range res.PerLayer {
			if m.Name != mf.PerLayer[i].Name || m.Unit != mf.PerLayer[i].Unit {
				t.Errorf("%s: layer metric %d is %s [%s], BENCHMARK.json has %s [%s]",
					name, i, m.Name, m.Unit, mf.PerLayer[i].Name, mf.PerLayer[i].Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", name, m.Name, m.Value)
			}
			if m.Name == "evict.picks_per_op" {
				picks[name] = m.Value
			}
		}
		if _, err := res.render(true); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		if err := writeSpans(out, res); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Layers map[string]float64
			Spans  []span
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: span file does not parse: %v", name, err)
		}
		if len(file.Spans) < 4 || len(file.Layers) != len(mf.PerLayer) {
			t.Errorf("%s: %d spans, %d layer values", name, len(file.Spans), len(file.Layers))
		}
		for _, s := range file.Spans {
			// IDs are 1-based positions; only the pass itself has no parent.
			if s.Parent < 0 || s.Parent >= s.ID || (s.Parent == 0 && s.Name != "pass") {
				t.Errorf("%s: span %d %q has parent %d", name, s.ID, s.Name, s.Parent)
			}
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %d %q ends before it starts", name, s.ID, s.Name)
			}
			if s.Pass != file.Spans[0].Pass {
				t.Errorf("%s: span %d belongs to pass %d, the others to %d", name, s.ID, s.Pass, file.Spans[0].Pass)
			}
		}
	}
	if picks["admit_rank"] != 0 {
		t.Errorf("admit_rank made %v learned victim picks per request, want 0", picks["admit_rank"])
	}
	if !(picks["evict_learned"] > 0) {
		t.Errorf("evict_learned made %v learned victim picks per request, want > 0", picks["evict_learned"])
	}
}
