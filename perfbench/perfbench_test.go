package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smallSize shrinks every workload so that one short run of each fits in
// a unit test: a 2×2-cell die, 24 labeled clips, 8-clip batch requests.
func smallSize() sizes {
	return sizes{
		setupReps: 2, gateClips: 4, bulkClips: 8, hotSet: 8, hotShare: 0.25, bulkReqs: 16,
		verifyClips: 8, dieCells: 2, edits: 4, maxEditNM: 200,
		labeled: 24, batch: 4, iters: 1, seedCycle: 2,
		replayOps: 4, layerInputs: 4,
	}
}

func runSmall(t *testing.T, workload string, trace, corrupt bool) (*report, error) {
	t.Helper()
	dir := t.TempDir()
	return execute(options{
		workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		spansDir: dir, workDir: dir, size: smallSize(), corrupt: corrupt,
	})
}

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// resultLine prints the report and decodes its last line, as a caller of
// the command would.
func resultLine(t *testing.T, rep *report) map[string]metricValue {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
		t.Fatalf("last line %q lacks correct/attempted/failed", lines[len(lines)-1])
	}
	return res.Metrics
}

// TestSelfCheck runs every workload small and checks what the benchmark
// promises: each metric is emitted with its BENCHMARK.json unit, the
// timing-independent outputs repeat exactly, and a corrupted output
// trips the correctness gate.
func TestSelfCheck(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, the command %q", i, w.Name, workloads[i])
		}
	}
	if len(spec.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(layerTable))
	}
	for i, d := range layerTable {
		if p := spec.PerLayer[i]; p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, the command %s %s %s", i, p, d.name, d.unit, d.better)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			a, err := runSmall(t, w, false, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runSmall(t, w, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if !a.correct || a.failed != 0 {
				t.Errorf("correct=%v failed=%d", a.correct, a.failed)
			}
			if a.outputs["checksum"] != b.outputs["checksum"] {
				t.Errorf("output checksum %v, then %v", a.outputs["checksum"], b.outputs["checksum"])
			}
			got := resultLine(t, a)
			if len(got) != len(spec.EndToEnd) {
				t.Errorf("untraced run emits %d metrics, want %d", len(got), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}

			tr, err := runSmall(t, w, true, false)
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := runSmall(t, w, true, false)
			if err != nil {
				t.Fatal(err)
			}
			got, got2 := resultLine(t, tr), resultLine(t, tr2)
			if len(got) != len(spec.PerLayer) {
				t.Errorf("traced run emits %d metrics, want %d", len(got), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
				if strings.HasPrefix(m.Name, "scan.") && strings.HasSuffix(m.Name, "_per_op") && v.Value != got2[m.Name].Value {
					t.Errorf("%s: %v, then %v", m.Name, v.Value, got2[m.Name].Value)
				}
			}
			if tr.outputs["checksum"] != a.outputs["checksum"] {
				t.Errorf("traced checksum %v, untraced %v", tr.outputs["checksum"], a.outputs["checksum"])
			}
			if w == "scan_eco" && !(got["scan.windows_per_op"].Value > 0) {
				t.Errorf("scan.windows_per_op = %v", got["scan.windows_per_op"].Value)
			}

			bad, err := runSmall(t, w, false, true)
			if !errors.Is(err, errGate) {
				t.Fatalf("corrupted output: err = %v, want a gate failure", err)
			}
			if bad == nil || bad.correct {
				t.Fatalf("corrupted output reported correct")
			}
			resultLine(t, bad)
		})
	}
}

func TestHiPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1)
	}
	if v, p := hiPercentile(xs); v != 90 || p != 90 {
		t.Errorf("hiPercentile(1..100) = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := hiPercentile([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Errorf("hiPercentile(3 values) = %v at p%v, want the maximum", v, p)
	}
	if v := percentile(xs, 90); v != 90 {
		t.Errorf("percentile(1..100, 90) = %v, want 90", v)
	}
	if v := percentile([]float64{5}, 90); v != 5 {
		t.Errorf("percentile of one value = %v, want it", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
