package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestKiffloadSmoke runs one tiny workload end to end, traced: a freshly
// built kiffserve, a 2-second nominal step, every check, every metric.
func TestKiffloadSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		Name: "smoke", Preset: "wikipedia", Scale: 0.02,
		Mix:   mix(opQueryUsers, 0.4, opQueryItems, 0.1, opNeighbors, 0.2, opInsert, 0.15, opRating, 0.15),
		Zipf:  true,
		Rates: [3]float64{50, 100, 200},
	}
	cfg := config{Seed: 1, Seconds: 4, Warmup: 0.5, SetupRuns: 1, Trace: true, Workdir: dir}
	rep, err := runWorkload(w, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 400 {
		t.Fatalf("correct=%v failed=%d attempted=%d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.notes)
	}
	for _, d := range endToEnd {
		if _, ok := rep.all[d.Name]; !ok {
			t.Errorf("end-to-end metric %s not measured", d.Name)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{"setup_s", "query_p50_ms", "graph_recall", "rss_peak_mb", "kiff.query_p50_us", "kiff.insert_us"} {
		if rep.all[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.all[name])
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "spans-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans file: %d spans, %v", len(spans), err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the root of
// the repository, in step with the metrics kiffload reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, kiffload has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q (%s) in kiffload", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, kiffload has %d", len(b.EndToEnd), len(endToEnd))
	}
	var cal struct {
		Bounds    map[string]float64
		Workloads map[string]map[string]calibrationEntry
	}
	if err := json.Unmarshal(calibrationJSON, &cal); err != nil {
		t.Fatal(err)
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in kiffload", i, m, d)
		}
		if cal.Bounds[m.Name] != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in calibration.json", m.Name, m.Bound, cal.Bounds[m.Name])
		}
		for _, w := range workloads {
			if _, ok := cal.Workloads[w.Name][m.Name]; !ok {
				t.Errorf("calibration.json has no %s for %s", m.Name, w.Name)
			}
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, kiffload has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in kiffload", i, m, d)
		}
	}
}
