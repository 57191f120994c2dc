package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hotspot/internal/obs"
)

// TestTraceIDsDeterministic: same seed, same ID sequence; different
// seeds, different sequences. The contract that makes trace IDs legal
// under seedlint (no wall clock, no math/rand) also makes them
// reproducible.
func TestTraceIDsDeterministic(t *testing.T) {
	ids := func(seed uint64, n int) []string {
		tr := New(Config{Seed: seed})
		out := make([]string, n)
		for i := range out {
			x := tr.Stage("req", nil)
			out[i] = x.Trace().ID()
			x.end(time.Millisecond)
		}
		return out
	}
	a, b, c := ids(7, 16), ids(7, 16), ids(8, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
		if len(a[i]) != 16 {
			t.Fatalf("ID %q is not 16 hex digits", a[i])
		}
	}
	if a[0] == c[0] {
		t.Fatalf("different seeds produced the same first ID %s", a[0])
	}
	seen := map[string]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate ID %s within one sequence", id)
		}
		seen[id] = true
	}
}

// TestDarkTracingZeroAlloc pins the flagship contract: the full API
// surface an instrumented hot path touches costs zero allocations when
// the tracer is nil.
func TestDarkTracingZeroAlloc(t *testing.T) {
	var tracer *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		st := tracer.Stage("predict", nil)
		root := st.Span()
		tr := st.Trace()
		root.SetInt("size", 4)
		root.SetBool("cache_hit", false)
		root.SetFloat("rate", 0.5)
		root.SetStr("key", "k")
		q := root.Stage("queue", nil)
		q.Span().SetStr("batch_id", tr.ID())
		q.end(time.Millisecond)
		c := q.Span().Stage("inner", nil)
		c.Span().SetInt("i", 1)
		c.End()
		c.Abort()
		tr.SetStatus(200)
		tr.SetError("boom")
		st.end(time.Millisecond)
		st.End()
		if got := tr.ID(); got != "" {
			t.Fatalf("nil trace ID = %q, want empty", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("dark tracing allocated %.1f times per run, want 0", allocs)
	}
}

// TestStageOneReading: a stage's one clock reading reaches its summary
// (tagged with the trace ID when lit) and its span bit for bit, an
// aborted stage files its trace without touching the summary, and a dark
// stage still records into its summary.
func TestStageOneReading(t *testing.T) {
	reg := obs.NewRegistry()
	sum := reg.Stage("request")
	tracer := New(Config{Seed: 2})

	st := tracer.Stage("predict", sum)
	id := st.Trace().ID()
	d := st.End()
	v, ex, ok := sum.Exemplar()
	if !ok || ex != id || math.Float64bits(v) != math.Float64bits(d.Seconds()) {
		t.Fatalf("exemplar (%v, %q, %v), want (%v, %q)", v, ex, ok, d.Seconds(), id)
	}
	snap := tracer.Snapshot()
	if len(snap) != 1 || math.Float64bits(snap[0].DurationSeconds) != math.Float64bits(d.Seconds()) {
		t.Fatalf("filed trace %+v, want one trace lasting %v", snap, d.Seconds())
	}

	failed := tracer.Stage("predict", sum)
	failed.Trace().SetStatus(400)
	if err := failed.Done(errors.New("bad clip")); err == nil {
		t.Fatal("Done swallowed the error")
	}
	if got := sum.Count(); got != 1 {
		t.Fatalf("aborted stage observed its summary: count %d, want 1", got)
	}
	if n := len(tracer.Snapshot()); n != 2 {
		t.Fatalf("aborted root filed %d traces in total, want 2", n)
	}

	var dark *Tracer
	ds := dark.Stage("predict", sum)
	if ds.Span() != nil || ds.Trace() != nil {
		t.Fatal("dark stage carries a span")
	}
	if err := ds.Done(nil); err != nil || sum.Count() != 2 {
		t.Fatalf("dark stage: err %v, count %d, want nil, 2", err, sum.Count())
	}
	allocs := testing.AllocsPerRun(100, func() {
		dark.Stage("predict", sum).End()
		Time(sum).Abort()
	})
	if allocs != 0 {
		t.Fatalf("dark stages allocated %.1f times per run, want 0", allocs)
	}
}

// TestRecorderTailKeep drives a controlled trace mix through a tiny
// recorder (4 recent, 2 errored, 2 slowest) and checks the three keeps:
// the last-N ring drops the boring middle, errors survive being pushed out
// of recent, and the slowest-N per endpoint survive regardless of age.
func TestRecorderTailKeep(t *testing.T) {
	tr := New(Config{Seed: 1})
	tr.rec = newRecorder(4, 2, 2)

	// One early error and one early very-slow request, then a flood of
	// boring fast traffic that evicts both from the recent ring.
	e := tr.Stage("predict", nil)
	e.Trace().SetStatus(429)
	e.Trace().SetError("queue full")
	errID := e.Trace().ID()
	e.end(1 * time.Millisecond)

	s := tr.Stage("predict", nil)
	slowID := s.Trace().ID()
	s.end(900 * time.Millisecond)

	var lastBoringID string
	for i := 0; i < 10; i++ {
		b := tr.Stage("predict", nil)
		b.Trace().SetStatus(200)
		lastBoringID = b.Trace().ID()
		b.end(time.Duration(i+2) * time.Millisecond)
	}

	dump := tr.Dump()
	if dump.Recorded != 12 {
		t.Fatalf("recorded = %d, want 12", dump.Recorded)
	}
	if dump.Dropped != dump.Recorded-int64(dump.Kept) {
		t.Fatalf("dropped %d inconsistent with recorded %d kept %d", dump.Dropped, dump.Recorded, dump.Kept)
	}
	kept := map[string][]string{}
	for _, x := range dump.Traces {
		kept[x.TraceID] = x.Kept
	}
	has := func(id, reason string) bool {
		for _, r := range kept[id] {
			if r == reason {
				return true
			}
		}
		return false
	}
	if !has(errID, "error") {
		t.Fatalf("429 trace %s not error-kept: %v", errID, kept[errID])
	}
	if has(errID, "recent") {
		t.Fatalf("429 trace %s still in recent after 10 later traces", errID)
	}
	if !has(slowID, "slow") {
		t.Fatalf("slowest trace %s not slow-kept: %v", slowID, kept[slowID])
	}
	if !has(lastBoringID, "recent") {
		t.Fatalf("most recent trace %s not recent-kept", lastBoringID)
	}
	// The slow bucket holds exactly SlowN=2: the 900ms outlier and the
	// 11ms tail of the boring flood.
	slowCount := 0
	for _, reasons := range kept {
		for _, r := range reasons {
			if r == "slow" {
				slowCount++
			}
		}
	}
	if slowCount != 2 {
		t.Fatalf("slow-kept %d traces, want 2", slowCount)
	}
	// Early boring traces are gone entirely.
	if len(dump.Traces) >= 12 {
		t.Fatalf("recorder kept everything (%d); the boring middle must drop", len(dump.Traces))
	}
}

// TestTraceJSONShape checks the rendered tree: nested spans, typed
// attributes, status/error propagation, and that WriteJSONL emits one
// valid JSON object per retained trace.
func TestTraceJSONShape(t *testing.T) {
	tracer := New(Config{Seed: 3})
	st := tracer.Stage("predict", nil)
	root := st.Span()
	root.SetInt("clips", 2)
	q := root.Stage("queue", nil)
	q.Span().SetStr("batch_id", "b1")
	q.end(5 * time.Millisecond)
	ex := root.Stage("extract", nil)
	inner := ex.Span().Stage("tile", nil)
	inner.Span().SetInt("tx", 1)
	inner.end(time.Millisecond)
	ex.end(2 * time.Millisecond)
	st.Trace().SetStatus(504)
	st.Trace().SetError("deadline")
	st.end(10 * time.Millisecond)

	snap := tracer.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(snap))
	}
	x := snap[0]
	if x.Name != "predict" || x.Status != 504 || x.Error != "deadline" {
		t.Fatalf("root fields wrong: %+v", x)
	}
	if x.DurationSeconds != 0.010 {
		t.Fatalf("duration = %v, want 0.010", x.DurationSeconds)
	}
	if got := x.Attrs["clips"]; got != int64(2) && got != float64(2) {
		t.Fatalf("clips attr = %v (%T)", got, got)
	}
	if len(x.Spans) != 2 || x.Spans[0].Name != "queue" || x.Spans[1].Name != "extract" {
		t.Fatalf("spans wrong: %+v", x.Spans)
	}
	if x.Spans[0].Attrs["batch_id"] != "b1" {
		t.Fatalf("queue attrs wrong: %v", x.Spans[0].Attrs)
	}
	if len(x.Spans[1].Children) != 1 || x.Spans[1].Children[0].Name != "tile" {
		t.Fatalf("nested span wrong: %+v", x.Spans[1])
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("JSONL has %d lines, want 1", len(lines))
	}
	var round TraceJSON
	if err := json.Unmarshal([]byte(lines[0]), &round); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if round.TraceID != x.TraceID {
		t.Fatalf("round-trip ID %s != %s", round.TraceID, x.TraceID)
	}

	// Same story through WriteJSON (the /debug/trace body).
	buf.Reset()
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump DumpJSON
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("WriteJSON body does not parse: %v", err)
	}
	if dump.Recorded != 1 || dump.Kept != 1 {
		t.Fatalf("dump accounting wrong: %+v", dump)
	}
}

// TestTraceConcurrentMutation: spans created/ended and attributes set
// from many goroutines while another goroutine renders snapshots — the
// per-trace lock must keep this race-clean (run under -race via check.sh).
func TestTraceConcurrentMutation(t *testing.T) {
	tracer := New(Config{Seed: 5})
	st := tracer.Stage("batch", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := st.Span().Stage("member", nil)
				m.Span().SetInt("i", int64(i))
				m.end(time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tracer.Snapshot()
		}
	}()
	wg.Wait()
	st.end(time.Millisecond)
	<-done
	snap := tracer.Snapshot()
	if len(snap) != 1 || len(snap[0].Spans) != 400 {
		t.Fatalf("got %d traces / %d spans, want 1 / 400", len(snap), len(snap[0].Spans))
	}
}

// BenchmarkDarkTrace measures the instrumentation tax with tracing
// disabled — the acceptance gate is 0 B/op.
func BenchmarkDarkTrace(b *testing.B) {
	var tracer *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTraceSequence(tracer)
	}
}

// BenchmarkLitTrace is the lit-side cost for contrast (allocations are
// expected here; the point is they only exist when the operator asks).
func BenchmarkLitTrace(b *testing.B) {
	tracer := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTraceSequence(tracer)
	}
}

// benchTraceSequence is one request's trace calls: a root stage with an
// attribute, a queue stage naming a batch, a status and the filing end.
func benchTraceSequence(tracer *Tracer) {
	st := tracer.Stage("predict", nil)
	st.Span().SetInt("size", 4)
	q := st.Span().Stage("queue", nil)
	q.Span().SetStr("batch_id", st.Trace().ID())
	q.end(time.Millisecond)
	st.Trace().SetStatus(200)
	st.end(time.Millisecond)
}
