package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: traced, tiny: true,
		traceDir: t.TempDir(), workDir: t.TempDir(), out: io.Discard}
}

func runTiny(t *testing.T, workload string, traced bool) *report {
	t.Helper()
	rep, err := run(tinyConfig(t, workload, traced))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// Every workload, traced and untraced, prints exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the command", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			rep := runTiny(t, w.Name, traced)
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %q missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced && rep.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("%s: ok_ratio %v", w.Name, rep.Metrics["ok_ratio"].Value)
			}
		}
	}
}

// The paper's model costs and the audited distortion are exact: two
// runs of one seed report them identically.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range []string{"build-broadcast", "build-paths", "query-hot"} {
		a, b := runTiny(t, w, false), runTiny(t, w, false)
		for _, m := range []string{"rounds", "comm_words", "peak_local_words", "distortion_mean"} {
			if a.Metrics[m].Value != b.Metrics[m].Value || a.Metrics[m].Value <= 0 {
				t.Errorf("%s %s: %v then %v", w, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// The traced mode writes well-formed Chrome trace-event JSON holding
// the benchmark's own spans and the pipeline's phase spans.
func TestTraceIsChromeJSON(t *testing.T) {
	for w, span := range map[string]string{"build-broadcast": "grid_construction", "query-cold": "gate /v1/dist"} {
		cfg := tinyConfig(t, w, true)
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(cfg.traceDir, w+"-seed7.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string   `json:"name"`
				Ph   string   `json:"ph"`
				Ts   *float64 `json:"ts"`
				Dur  float64  `json:"dur"`
				Pid  *int     `json:"pid"`
				Tid  *int     `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w, err)
		}
		found := false
		for _, e := range doc.TraceEvents {
			if e.Name == "" || e.Pid == nil || e.Tid == nil || (e.Ph != "X" && e.Ph != "M") {
				t.Fatalf("%s: malformed event %+v", w, e)
			}
			if e.Ph == "X" && (e.Ts == nil || *e.Ts < 0 || e.Dur < 0) {
				t.Fatalf("%s: bad timing on %q", w, e.Name)
			}
			found = found || e.Name == span
		}
		if !found {
			t.Errorf("%s: no %q span in the trace", w, span)
		}
	}
}
