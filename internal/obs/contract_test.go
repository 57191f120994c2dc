package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestSummaryConcurrentWriters hammers one Summary from many goroutines
// and checks the accounting is exact, not approximately right: the
// lifetime count must equal the number of observations, and the window
// must be full with quantiles drawn from values actually observed. Run
// under -race by the check gate.
func TestSummaryConcurrentWriters(t *testing.T) {
	const writers, perWriter, window = 8, 1000, 64
	r := NewRegistry()
	s := r.Summary("lat", window)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Observe(float64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()

	if got, want := s.Count(), int64(writers*perWriter); got != want {
		t.Fatalf("lifetime count = %d, want %d", got, want)
	}
	n := float64(writers * perWriter)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		q := s.Quantile(p)
		if q != float64(int(q)) || q < 0 || q >= n {
			t.Fatalf("quantile(%v) = %v is not an observed sample", p, q)
		}
	}
	// The window holds exactly `window` samples: quantile(0) and
	// quantile(1) span at most the window, never the lifetime.
	if lo, hi := s.Quantile(0), s.Quantile(1); hi-lo >= n {
		t.Fatalf("window [%v, %v] wider than lifetime range", lo, hi)
	}
}

// TestSummaryExemplar: the exemplar tracks the window's slowest tagged
// sample, untagged observations carry none, and ring-buffer reuse evicts
// stale exemplars with their samples.
func TestSummaryExemplar(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat", 4)
	if _, _, ok := s.Exemplar(); ok {
		t.Fatal("empty summary has an exemplar")
	}
	s.Observe(9) // untagged: never an exemplar
	s.ObserveExemplar(5, "t5")
	s.ObserveExemplar(7, "t7")
	if v, ex, ok := s.Exemplar(); !ok || ex != "t7" || v != 7 {
		t.Fatalf("exemplar = (%v, %q, %v), want (7, t7, true)", v, ex, ok)
	}
	// Fill the window with untagged samples: t7 and t5 fall out of the
	// ring and their exemplars must not survive them.
	for i := 0; i < 4; i++ {
		s.Observe(1)
	}
	if v, ex, ok := s.Exemplar(); ok {
		t.Fatalf("stale exemplar survived eviction: (%v, %q)", v, ex)
	}
}

// TestTextExemplarLine: a summary fed through ObserveExemplar renders one
// extra q="max" line carrying the trace ID; plain summaries render none.
func TestTextExemplarLine(t *testing.T) {
	r := NewRegistry()
	plain := r.Summary("plain_seconds", 0, L("stage", "a"))
	plain.Observe(0.5)
	tagged := r.Summary("req_seconds", 0, L("stage", "b"))
	tagged.ObserveExemplar(0.25, "deadbeefdeadbeef")

	text := r.Text()
	want := `req_seconds{stage="b",q="max",trace_id="deadbeefdeadbeef"} 0.250000000`
	if !strings.Contains(text, want) {
		t.Fatalf("Text missing exemplar line %q:\n%s", want, text)
	}
	if strings.Contains(text, `plain_seconds{stage="a",q="max"`) {
		t.Fatalf("plain summary grew an exemplar line:\n%s", text)
	}
}

// TestEventLogDeterministicFieldOrder: two emits of the same logical
// fields — built in different map insertion orders — and repeated runs
// must produce byte-identical lines (json.Marshal sorts map keys).
func TestEventLogDeterministicFieldOrder(t *testing.T) {
	emit := func(fields map[string]any) string {
		var buf bytes.Buffer
		l := NewEventLog(&buf)
		l.Emit("epoch", fields)
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	a := map[string]any{}
	a["loss"] = 0.5
	a["iter"] = 3
	a["acc"] = 0.75
	b := map[string]any{}
	b["acc"] = 0.75
	b["iter"] = 3
	b["loss"] = 0.5

	lineA, lineB := emit(a), emit(b)
	if lineA != lineB {
		t.Fatalf("field insertion order leaked into output:\n%s%s", lineA, lineB)
	}
	for i := 0; i < 16; i++ {
		if got := emit(a); got != lineA {
			t.Fatalf("run %d diverged:\n%svs\n%s", i, got, lineA)
		}
	}
	if want := `{"acc":0.75,"event":"epoch","iter":3,"loss":0.5}` + "\n"; lineA != want {
		t.Fatalf("line = %q, want %q", lineA, want)
	}
}

// TestSetBuildInfo: the gauge registers with the identity labels plus the
// caller's extras and renders value 1.
func TestSetBuildInfo(t *testing.T) {
	r := NewRegistry()
	SetBuildInfo(r, L("tool", "hsd-test"))
	text := r.Text()
	if !strings.Contains(text, BuildInfoMetric+`{module="`) {
		t.Fatalf("Text missing %s:\n%s", BuildInfoMetric, text)
	}
	if !strings.Contains(text, `tool="hsd-test"`) || !strings.Contains(text, `go="`) {
		t.Fatalf("build info labels incomplete:\n%s", text)
	}
	line := ""
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, BuildInfoMetric) {
			line = l
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Fatalf("build info value not 1: %q", line)
	}
}
