package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("status", "200"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", L("status", "200")); again != c {
		t.Fatal("re-fetching the same series returned a different counter")
	}
	if other := r.Counter("reqs_total", L("status", "500")); other == c {
		t.Fatal("different labels returned the same counter")
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", -1)
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %v, want 42", got)
	}
	r.GaugeFunc("live", 6, func() float64 { return 0.25 })
	snaps := r.Snapshot("live")
	if len(snaps) != 1 || snaps[0].Value != 0.25 {
		t.Fatalf("gauge func snapshot = %+v, want value 0.25", snaps)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter series as a gauge did not panic")
		}
	}()
	r.Gauge("x", -1)
}

// TestQuantileCeilRank pins the nearest-rank (ceiling) quantile fix from
// the issue: the old serve ring computed int(p*(n-1)) (truncation), which
// under-reported the tail of a full window by one rank.
func TestQuantileCeilRank(t *testing.T) {
	// 1..1000 in scrambled insertion order; pin p50/p99/p100.
	s := newSummary(1000)
	for i := 0; i < 1000; i++ {
		s.Observe(float64((i*7919)%1000 + 1))
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {1.0, 1000}, {0, 1}} {
		if got := s.Quantile(tc.p); got != tc.want {
			t.Errorf("q(%v) over 1..1000 = %v, want %v", tc.p, got, tc.want)
		}
	}

	// Full DefaultWindow of 1..1024: the case where truncation and
	// ceil-rank disagree. int(0.99*1023) = 1012 → value 1013 (the old
	// bias); ceil(0.99*1024)-1 = 1013 → value 1014.
	s = newSummary(DefaultWindow)
	for i := 1; i <= DefaultWindow; i++ {
		s.Observe(float64(i))
	}
	if got := s.Quantile(0.99); got != 1014 {
		t.Errorf("p99 over 1..1024 = %v, want 1014 (ceil-rank)", got)
	}
	if got := s.Quantile(0.50); got != 512 {
		t.Errorf("p50 over 1..1024 = %v, want 512", got)
	}
}

func TestSummaryWindowSlides(t *testing.T) {
	s := newSummary(4)
	for i := 1; i <= 8; i++ {
		s.Observe(float64(i))
	}
	// Window holds 5..8; lifetime count is 8.
	if got := s.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	if got := s.Quantile(0); got != 5 {
		t.Fatalf("min over window = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 8 {
		t.Fatalf("max over window = %v, want 8", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := newSummary(8)
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("quantile of empty summary = %v, want 0", got)
	}
	count, p50, p99 := s.stats()
	if count != 0 || p50 != 0 || p99 != 0 {
		t.Fatalf("stats of empty summary = (%d, %v, %v), want zeros", count, p50, p99)
	}
}

// TestTextExposition is the golden test for the exposition format: every
// instrument kind, exact rendering, sorted order.
func TestTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", L("endpoint", "predict"), L("status", "200")).Add(7)
	r.Gauge("app_cache_entries", -1).Set(3)
	r.Gauge("app_cache_hit_rate", 6).Set(0.5)
	h := r.IntHist("app_batch_size_total", "size")
	h.Observe(2)
	h.Observe(2)
	h.Observe(5)
	sum := r.Summary("app_stage_seconds", 8, L("stage", "extract"))
	sum.Observe(0.001)
	sum.Observe(0.003)

	want := strings.Join([]string{
		`app_batch_size_total{size="2"} 2`,
		`app_batch_size_total{size="5"} 1`,
		`app_cache_entries 3`,
		`app_cache_hit_rate 0.500000`,
		`app_requests_total{endpoint="predict",status="200"} 7`,
		`app_stage_seconds_count{stage="extract"} 2`,
		`app_stage_seconds{stage="extract",q="p50"} 0.001000000`,
		`app_stage_seconds{stage="extract",q="p99"} 0.003000000`,
	}, "\n") + "\n"
	if got := r.Text(); got != want {
		t.Fatalf("exposition mismatch\n got:\n%s\nwant:\n%s", got, want)
	}

	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if b.String() != want {
		t.Fatal("WriteText differs from Text")
	}
}

// TestRegistryConcurrency hammers one registry from parallel writers while
// a scraper reads; the race detector is the assertion.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) { //hsd:allow goroutinelint test-local fan-out joined by WaitGroup
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total", L("w", string(rune('a'+w)))).Inc()
				r.Gauge("g", 3).Set(float64(i))
				r.IntHist("h_total", "v").Observe(i % 7)
				r.Stage("loop/step").Observe(float64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() { //hsd:allow goroutinelint test-local scraper joined via channel
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Text()
				_ = r.Snapshot()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scraped

	total := int64(0)
	for _, s := range r.Snapshot("c_total") {
		total += int64(s.Value)
	}
	if total != 4*500 {
		t.Fatalf("counter total = %d, want %d", total, 4*500)
	}
}

func TestStageMetricRename(t *testing.T) {
	r := NewRegistry()
	r.SetStageMetric("serve_stage_seconds")
	r.Stage("extract").Observe(0.5)
	text := r.Text()
	if !strings.Contains(text, `serve_stage_seconds{stage="extract",q="p50"} 0.500000000`) {
		t.Fatalf("renamed stage metric missing from exposition:\n%s", text)
	}
	if strings.Contains(text, DefaultStageMetric) {
		t.Fatalf("default stage metric leaked into renamed registry:\n%s", text)
	}
}

func TestObserveDuration(t *testing.T) {
	s := newSummary(4)
	s.ObserveDuration(1500 * time.Millisecond)
	if got := s.Quantile(1); got != 1.5 {
		t.Fatalf("duration observed as %v seconds, want 1.5", got)
	}
}

// TestEventLogRoundTrip writes events and decodes them back line by line.
func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("manifest", map[string]any{"seed": 42, "workers": 4, "tool": "hsd-train"})
	l.Emit("epoch", map[string]any{"iter": 100, "loss": 0.25, "val_accuracy": 0.9})
	l.Emit("epoch", nil)
	if err := l.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}

	sc := bufio.NewScanner(&buf)
	var events []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(events)+1, err)
		}
		events = append(events, rec)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if events[0]["event"] != "manifest" || events[0]["seed"] != float64(42) {
		t.Fatalf("manifest event mangled: %v", events[0])
	}
	if events[1]["event"] != "epoch" || events[1]["loss"] != 0.25 {
		t.Fatalf("epoch event mangled: %v", events[1])
	}
	if events[2]["event"] != "epoch" {
		t.Fatalf("nil-fields event mangled: %v", events[2])
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit("anything", map[string]any{"k": 1}) // must not panic
	if err := l.Err(); err != nil {
		t.Fatalf("nil event log reported error: %v", err)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errFail
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestEventLogStickyError(t *testing.T) {
	fw := &failWriter{}
	l := NewEventLog(fw)
	l.Emit("a", nil)
	l.Emit("b", nil)
	if l.Err() == nil {
		t.Fatal("write failure not reported")
	}
	if fw.calls != 1 {
		t.Fatalf("writer called %d times after sticky error, want 1", fw.calls)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil {
		t.Fatal("Default registry is nil")
	}
	if Default() != Default() {
		t.Fatal("Default registry is not a singleton")
	}
}
