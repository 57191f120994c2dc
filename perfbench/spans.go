package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"hotspot/internal/parallel"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its op ID; Parent links a span to the span that caused it.
type span struct {
	Workload string             `json:"workload"`
	Op       int                `json:"op"` // -1: not tied to one op
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0: a root span
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"` // since the recorder started
	End      int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing.
type recorder struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// add records a finished span and returns its ID.
func (r *recorder) add(name string, op, parent int, start, end time.Time, attrs map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Workload: r.workload, Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Attrs: attrs,
	})
	return id
}

// open starts a span whose children are recorded before it ends.
func (r *recorder) open(name string, op, parent int) int {
	now := time.Now()
	return r.add(name, op, parent, now, now, nil)
}

// close ends a span started with open.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// call times fn as one span.
func (r *recorder) call(name string, op, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	r.add(name, op, parent, start, time.Now(), nil)
	return err
}

// writeFile writes one JSON line per span.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// perLayer writes the traced run's spans (plus the untraced phase's ops,
// for the tracing overhead) to the span file, reads the file back and
// derives every per-layer metric from it.
func (r *report) perLayer(o *options, untraced, traced *phase) error {
	rec := traced.rec
	for i, op := range untraced.ops {
		rec.add("op.untraced", i, 0, op.start, op.end, nil)
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.writeFile(path); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	spans, err := readSpans(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	vals := layerMetrics(spans, parallel.Default())
	var na []string
	moves := make(map[string]string, len(layerTable))
	for _, d := range layerTable {
		r.metrics = append(r.metrics, metric{d.name, d.unit, vals[d.name]})
		moves[d.name] = d.moves
		if !d.appliesTo(o.workload) {
			na = append(na, d.name)
		}
	}
	r.notes["spans_file"] = path
	r.notes["spans"] = len(spans)
	r.notes["ops_untraced"] = len(untraced.ops)
	r.notes["ops_traced"] = len(traced.ops)
	r.notes["not_applicable_reported_as_0"] = na
	r.notes["should_move"] = moves
	return nil
}

// layerMetrics computes every per-layer metric from a span file's spans.
// Metrics the spans give no data for (a layer the workload does not reach)
// stay 0.
func layerMetrics(spans []span, workers int) map[string]float64 {
	byName := map[string][]float64{}
	children := map[int][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	med := func(name string) float64 { return median(byName[name]) }
	m := map[string]float64{
		"raster.clip_ms":       med(spanCoreImage),
		"raster.tile_ms":       med(spanRasterize),
		"feature.clip_ms":      med(spanTensor),
		"feature.block_us":     med(spanBlock) * 1e3,
		"fused.forward_us":     med(spanPredictOn) * 1e3,
		"fused.batch_ms":       med(spanPredictProbs),
		"train.sample_ms":      med(spanSample),
		"parallel.for_us":      med(spanFor) * 1e3,
		"layout.apply_edit_ms": med(spanApplyEdit),
	}
	m["loadgen.late_hi_ms"], _ = hiPercentile(byName["loadgen.late"])

	for _, st := range stageNames {
		us := med(spanStage+st) * 1e3
		m["fused."+st+"_us"] = us
		if macs := stageMACs(spans, st); us > 0 {
			m["fused."+st+"_gflops"] = 2 * macs / (us * 1e3)
		}
	}
	for _, l := range nnLayerNames {
		m["nn."+l+".fwd_us"] = med(spanLayerFwd+l) * 1e3
		m["nn."+l+".bwd_us"] = med(spanLayerBwd+l) * 1e3
	}
	// The other layers (ReLU, max-pool, dropout, the softmax
	// cross-entropy) are summed per replayed sample.
	var otherFwd, otherBwd []float64
	for _, s := range spans {
		if s.Name != spanNNSample {
			continue
		}
		f, b := 0.0, 0.0
		for _, c := range children[s.ID] {
			switch {
			case c.Name == spanLoss, strings.HasPrefix(c.Name, spanLayerFwd) && !slices.Contains(nnLayerNames, c.Name[len(spanLayerFwd):]):
				f += c.ms()
			case strings.HasPrefix(c.Name, spanLayerBwd) && !slices.Contains(nnLayerNames, c.Name[len(spanLayerBwd):]):
				b += c.ms()
			}
		}
		otherFwd, otherBwd = append(otherFwd, f*1e3), append(otherBwd, b*1e3)
	}
	m["nn.other.fwd_us"], m["nn.other.bwd_us"] = median(otherFwd), median(otherBwd)

	// Server counters, sampled around the traced phase.
	for _, s := range spans {
		if s.Name != spanServeMetrics {
			continue
		}
		if b := s.Attrs["batches"]; b > 0 {
			m["serve.batch_size_mean"] = s.Attrs["batched_clips"] / b
		}
		if n := s.Attrs["cache_hits"] + s.Attrs["cache_misses"]; n > 0 {
			m["serve.cache_hit_ratio"] = s.Attrs["cache_hits"] / n
		}
	}

	// Op-level residuals and counts over the traced ops.
	var serveRes, scanRes, trainRes, traced, untraced []float64
	var cycle, windows, dcts, dirty, gathers float64
	blockMS, forwardMS, sampleMS := m["feature.block_us"]/1e3, m["fused.forward_us"]/1e3, m["train.sample_ms"]
	for _, s := range spans {
		if s.Name == "op.untraced" {
			untraced = append(untraced, s.ms())
		}
		if s.Name != "op" {
			continue
		}
		traced = append(traced, s.ms())
		replayed, edit := 0.0, 0.0
		nReplayed := 0
		for _, c := range children[s.ID] {
			switch c.Name {
			case spanCoreImage, spanTensor, spanPredictProbs:
				replayed += c.ms()
				nReplayed++
			case spanApplyEdit:
				edit += c.ms()
			}
		}
		a := s.Attrs
		switch {
		case nReplayed > 0:
			serveRes = append(serveRes, s.ms()-replayed)
		case a["windows"] > 0:
			if edit > 0 {
				scanRes = append(scanRes, s.ms()-edit-a["dirty_blocks"]*blockMS-a["windows"]*forwardMS/float64(workers))
			}
			if cycle = a["cycle"]; float64(s.Op) < cycle {
				windows += a["windows"]
				dcts += a["block_dcts"]
				dirty += a["dirty_blocks"]
				gathers += a["block_gathers"]
			}
		case a["samples"] > 0:
			trainRes = append(trainRes, s.ms()-a["samples"]*sampleMS/float64(workers))
		}
	}
	m["serve.residual_ms"] = median(serveRes)
	m["scan.residual_ms"] = median(scanRes)
	m["train.residual_ms"] = median(trainRes)
	if cycle > 0 {
		m["scan.windows_per_op"] = windows / cycle
		m["scan.block_dcts_per_op"] = dcts / cycle
		m["scan.dirty_blocks_per_op"] = dirty / cycle
		m["scan.cache_hit_ratio"] = gathers / (gathers + dcts)
	}
	if u := median(untraced); u > 0 {
		m["trace.overhead_pct"] = 100 * (median(traced)/u - 1)
	}
	return m
}

// stageMACs reads the multiply-add count a stage's spans carry.
func stageMACs(spans []span, stage string) float64 {
	for _, s := range spans {
		if s.Name == spanStage+stage {
			return s.Attrs["macs"]
		}
	}
	return 0
}
