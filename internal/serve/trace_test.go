package serve_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotspot/internal/obs/trace"
	"hotspot/internal/serve"
)

// traceConfig is testConfig with request tracing lit.
func traceConfig() serve.Config {
	cfg := testConfig()
	cfg.Trace = &trace.Config{Seed: 11}
	return cfg
}

// TestServeTraceParity is the serving half of the instrumentation-parity
// contract: a traced server and a dark server with the same weights
// return bit-identical probabilities for the same clips.
func TestServeTraceParity(t *testing.T) {
	_, darkTS := newTestServer(t, testConfig(), 41)
	_, litTS := newTestServer(t, traceConfig(), 41)
	clips := testClips(24, 17)
	for i, c := range clips {
		respD, rawD := postJSON(t, darkTS.Client(), darkTS.URL+"/v1/predict", clipRequest(c))
		respL, rawL := postJSON(t, litTS.Client(), litTS.URL+"/v1/predict", clipRequest(c))
		if respD.StatusCode != http.StatusOK || respL.StatusCode != http.StatusOK {
			t.Fatalf("clip %d: status dark=%d lit=%d", i, respD.StatusCode, respL.StatusCode)
		}
		pd, pl := decodePredict(t, rawD), decodePredict(t, rawL)
		if math.Float64bits(pd.Prob) != math.Float64bits(pl.Prob) || pd.Hotspot != pl.Hotspot {
			t.Fatalf("clip %d: traced prob %v != dark prob %v", i, pl.Prob, pd.Prob)
		}
	}
}

// TestStageCountsLitDark: lighting tracing changes no stage count. The
// same requests — misses, cache hits, a batch request and a 400 — leave
// every stage summary of a lit server and a dark one with equal counts.
// One-clip micro-batches keep the batch count independent of timing.
func TestStageCountsLitDark(t *testing.T) {
	darkCfg, litCfg := testConfig(), traceConfig()
	darkCfg.MaxBatch, litCfg.MaxBatch = 1, 1
	dark, darkTS := newTestServer(t, darkCfg, 41)
	lit, litTS := newTestServer(t, litCfg, 41)
	clips := testClips(6, 23)
	var batch serve.BatchRequest
	for _, c := range clips {
		batch.Clips = append(batch.Clips, clipRequest(c))
	}
	for _, ts := range []*httptest.Server{darkTS, litTS} {
		for pass := 0; pass < 2; pass++ { // the second pass answers from the cache
			for _, c := range clips[:3] {
				if resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(c)); resp.StatusCode != http.StatusOK {
					t.Fatalf("predict: %d (%s)", resp.StatusCode, raw)
				}
			}
		}
		if resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict/batch", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch predict: %d (%s)", resp.StatusCode, raw)
		}
		if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", serve.ClipRequest{Frame: &serve.RectJSON{}}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty frame: status %d, want 400", resp.StatusCode)
		}
	}
	// The flush loop observes a batch after its replies go out; Close
	// waits for it.
	dark.Close()
	lit.Close()
	dm := dark.Metrics()
	ds, ls := dm.Stages, lit.Metrics().Stages
	if len(ds) != 5 || len(ls) != 5 {
		t.Fatalf("stage sets: dark %v, lit %v; want 5 stages each", ds, ls)
	}
	for name, d := range ds {
		if l := ls[name]; l.Count != d.Count {
			t.Fatalf("stage %s: lit count %d, dark count %d", name, l.Count, d.Count)
		}
	}
	// 7 answered requests (the 400 is not counted); every cache miss
	// queues once and rides in its own batch.
	if m := dm.CacheMisses; ds["request"].Count != 7 || ds["queue"].Count != m || ds["batch"].Count != m {
		t.Fatalf("dark counts request/queue/batch = %d/%d/%d, want 7/%d/%d",
			ds["request"].Count, ds["queue"].Count, ds["batch"].Count, m, m)
	}
}

// TestRequestExemplarIsTraceDuration: the request summary's exemplar is
// the very reading its trace was filed with — the q="max" value and the
// named trace's duration are bit-identical.
func TestRequestExemplarIsTraceDuration(t *testing.T) {
	srv, ts := newTestServer(t, traceConfig(), 41)
	for _, c := range testClips(4, 29) {
		if resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(c)); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d (%s)", resp.StatusCode, raw)
		}
	}
	v, id, ok := srv.Registry().Stage("request").Exemplar()
	if !ok {
		t.Fatal("request summary carries no exemplar with tracing lit")
	}
	for _, tr := range srv.Tracer().Snapshot() {
		if tr.TraceID != id {
			continue
		}
		if math.Float64bits(tr.DurationSeconds) != math.Float64bits(v) {
			t.Fatalf("trace %s lasted %v s, exemplar says %v s", id, tr.DurationSeconds, v)
		}
		return
	}
	t.Fatalf("exemplar names trace %s, which the recorder does not hold", id)
}

// TestRequestTraceTree drives one miss and one hit through a traced
// server and checks the recorded shapes: the predict trace carries
// decode and queue spans, the queue span names its batch, the batch
// trace names the member request back, and the cached repeat is marked
// cache_hit with no queue wait.
func TestRequestTraceTree(t *testing.T) {
	srv, ts := newTestServer(t, traceConfig(), 41)
	clip := clipRequest(testClips(1, 3)[0])
	for i := 0; i < 2; i++ { // second request answers from the clip cache
		if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clip); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	// The batch trace is finished by the flush loop after replies go out,
	// so it can trail the HTTP response by a moment: poll for it.
	var missT, hitT, batchT *trace.TraceJSON
	for attempt := 0; attempt < 200 && batchT == nil; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Millisecond)
		}
		snap := srv.Tracer().Snapshot()
		missT, hitT, batchT = nil, nil, nil
		for i := range snap {
			x := snap[i]
			switch {
			case x.Name == "batch":
				batchT = &snap[i]
			case x.Name == "predict" && x.Attrs["cache_hit"] == true:
				hitT = &snap[i]
			case x.Name == "predict":
				missT = &snap[i]
			}
		}
	}
	if missT == nil || hitT == nil || batchT == nil {
		t.Fatalf("recorder missing traces: miss=%v hit=%v batch=%v", missT != nil, hitT != nil, batchT != nil)
	}
	if missT.Status != http.StatusOK || missT.Attrs["cache_hit"] != false {
		t.Fatalf("miss trace wrong: %+v", missT)
	}
	spans := map[string]trace.SpanJSON{}
	for _, sp := range missT.Spans {
		spans[sp.Name] = sp
	}
	q, ok := spans["queue"]
	if _, okDec := spans["decode"]; !ok || !okDec {
		t.Fatalf("miss trace spans missing decode/queue: %+v", missT.Spans)
	}
	batchID, _ := q.Attrs["batch_id"].(string)
	if batchID != batchT.TraceID {
		t.Fatalf("queue batch_id %q does not name the batch trace %q", batchID, batchT.TraceID)
	}
	// Reverse linkage: the batch names its member request.
	if got := batchT.Attrs["member_0"]; got != missT.TraceID {
		t.Fatalf("batch member_0 = %v, want %s", got, missT.TraceID)
	}
	if batchT.Attrs["size"] != int64(1) || batchT.Attrs["model_generation"] != int64(1) {
		t.Fatalf("batch attrs wrong: %v", batchT.Attrs)
	}
	bspans := map[string]bool{}
	for _, sp := range batchT.Spans {
		bspans[sp.Name] = true
	}
	if !bspans["extract"] || !bspans["infer"] {
		t.Fatalf("batch trace spans missing extract/infer: %+v", batchT.Spans)
	}
	// The cache hit never queued.
	for _, sp := range hitT.Spans {
		if sp.Name == "queue" {
			t.Fatalf("cache-hit trace grew a queue span: %+v", hitT.Spans)
		}
	}
}

// TestDebugTraceGating: /debug/trace is mounted exactly when tracing is
// lit — independent of the pprof debug switch — and 404s when dark.
func TestDebugTraceGating(t *testing.T) {
	dark, _ := newTestServer(t, testConfig(), 41)
	darkTS := httptest.NewServer(serve.DebugHandler(dark, false))
	defer darkTS.Close()
	if code, _ := getBody(t, darkTS.URL+"/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("dark server /debug/trace = %d, want 404", code)
	}

	lit, litTS := newTestServer(t, traceConfig(), 41)
	postJSON(t, litTS.Client(), litTS.URL+"/v1/predict", clipRequest(testClips(1, 3)[0]))
	debugTS := httptest.NewServer(serve.DebugHandler(lit, false))
	defer debugTS.Close()
	if code, _ := getBody(t, debugTS.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("tracing lit without -pprof exposed pprof: %d", code)
	}
	code, body := getBody(t, debugTS.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("lit server /debug/trace = %d, want 200", code)
	}
	var dump trace.DumpJSON
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/trace body does not parse: %v", err)
	}
	if dump.Recorded < 2 || len(dump.Traces) < 2 { // predict + its batch at minimum
		t.Fatalf("dump suspiciously empty: recorded=%d traces=%d", dump.Recorded, len(dump.Traces))
	}
	// The slowest request's trace ID surfaces as a /metrics exemplar.
	if code, metrics := getBody(t, litTS.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(metrics, `q="max",trace_id="`) {
		t.Fatalf("/metrics (%d) missing trace exemplar line:\n%s", code, metrics)
	}
}
