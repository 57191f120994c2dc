// The flight recorder: bounded in-memory retention of finished traces
// with a tail-keep policy. Three overlapping keeps, all deterministic:
//
//   - recent: a ring of the last DefaultRecent traces, any outcome, so a
//     dump right after an incident shows the immediate past;
//   - error:  a ring of the last DefaultErrors traces whose status was
//     >= 400 or that carried an explicit error — a 429 or 504 is never
//     dropped by boring traffic that follows it (until DefaultErrors more
//     errors arrive);
//   - slow:   the slowest DefaultSlowN traces per root span name
//     ("endpoint"), held in ascending duration order, so the requests
//     behind the p99 summaries are inspectable individually.
//
// Everything else — the boring middle — is dropped, and the dump reports
// how many. Buffers are preallocated at construction: record and keepSlow
// run once per finished trace, which is request rate when tracing is lit
// on a serving box, so they must not make per-call slices (buflint's
// "trace" spec pins record/keepSlow; the per-name slow bucket is created
// at most once per endpoint in newBucket, behind the map-miss check).
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

type recorder struct {
	mu         sync.Mutex
	recent     []*Trace // ring, nil until filled
	recentNext int
	errors     []*Trace // ring, nil until filled
	errorsNext int
	slowN      int
	slow       map[string][]*Trace // per root name, ascending by duration
	recorded   int64               // lifetime count of finished traces
}

func newRecorder(recent, errors, slowN int) *recorder {
	return &recorder{
		recent: make([]*Trace, recent),
		errors: make([]*Trace, errors),
		slowN:  slowN,
		slow:   make(map[string][]*Trace),
	}
}

// record files one finished trace under the tail-keep policy. Runs at
// request rate when tracing is lit: no per-call slice makes.
func (r *recorder) record(tr *Trace, name string, d time.Duration, isErr bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded++
	r.recent[r.recentNext] = tr
	r.recentNext = (r.recentNext + 1) % len(r.recent)
	if isErr {
		r.errors[r.errorsNext] = tr
		r.errorsNext = (r.errorsNext + 1) % len(r.errors)
	}
	r.keepSlow(name, tr, d)
}

// keepSlow maintains the ascending slowest-N bucket for name. Called
// under r.mu at request rate: the insertion works in place within the
// bucket's fixed capacity.
func (r *recorder) keepSlow(name string, tr *Trace, d time.Duration) {
	b, ok := r.slow[name]
	if !ok {
		b = r.newBucket()
	}
	if len(b) == r.slowN {
		if d <= b[0].root.dur {
			return // faster than everything kept; drop
		}
		copy(b, b[1:]) // evict the fastest
		b = b[:len(b)-1]
	}
	b = append(b, tr) // within the bucket's cap
	for i := len(b) - 1; i > 0 && b[i-1].root.dur > d; i-- {
		b[i], b[i-1] = b[i-1], b[i]
	}
	r.slow[name] = b
}

// newBucket allocates one endpoint's slow bucket; runs once per distinct
// root span name, off the per-trace path.
func (r *recorder) newBucket() []*Trace {
	return make([]*Trace, 0, r.slowN)
}

// SpanJSON is the dump shape of one span.
type SpanJSON struct {
	Name            string         `json:"name"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []SpanJSON     `json:"children,omitempty"`
}

// TraceJSON is the dump shape of one retained trace. Kept lists why the
// recorder retained it ("recent", "error", "slow"), sorted.
type TraceJSON struct {
	TraceID         string         `json:"trace_id"`
	Seq             uint64         `json:"seq"`
	Name            string         `json:"name"`
	Status          int            `json:"status,omitempty"`
	Error           string         `json:"error,omitempty"`
	DurationSeconds float64        `json:"duration_seconds"`
	Kept            []string       `json:"kept"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Spans           []SpanJSON     `json:"spans,omitempty"`
}

// DumpJSON is the /debug/trace response shape.
type DumpJSON struct {
	Recorded int64       `json:"recorded"`
	Kept     int         `json:"kept"`
	Dropped  int64       `json:"dropped"`
	Traces   []TraceJSON `json:"traces"`
}

// Snapshot returns every retained trace, deduplicated across the three
// keeps and tagged with its keep reasons, ordered by trace sequence
// number (creation order). Nil-safe.
func (t *Tracer) Snapshot() []TraceJSON {
	if t == nil {
		return nil
	}
	traces, _ := t.rec.snapshot()
	return traces
}

// Dump returns the full recorder state — retained traces plus lifetime
// recorded/dropped accounting. Nil-safe.
func (t *Tracer) Dump() DumpJSON {
	if t == nil {
		return DumpJSON{Traces: []TraceJSON{}}
	}
	traces, recorded := t.rec.snapshot()
	return DumpJSON{
		Recorded: recorded,
		Kept:     len(traces),
		Dropped:  recorded - int64(len(traces)),
		Traces:   traces,
	}
}

// WriteJSON writes the recorder dump as one indented JSON object — the
// GET /debug/trace body.
func (t *Tracer) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(t.Dump(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteJSONL writes one JSON object per retained trace — the -trace-out
// file format of the batch tools. Nil-safe (writes nothing).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, tj := range t.Snapshot() {
		buf, err := json.Marshal(tj)
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func (r *recorder) snapshot() ([]TraceJSON, int64) {
	type kept struct {
		tr      *Trace
		reasons []string
	}
	r.mu.Lock()
	byID := make(map[uint64]*kept)
	var order []*kept
	keep := func(tr *Trace, reason string) {
		if tr == nil {
			return
		}
		k, ok := byID[tr.id]
		if !ok {
			k = &kept{tr: tr}
			byID[tr.id] = k
			order = append(order, k)
		}
		k.reasons = append(k.reasons, reason)
	}
	for _, tr := range r.recent {
		keep(tr, "recent")
	}
	for _, tr := range r.errors {
		keep(tr, "error")
	}
	for _, b := range r.slow {
		for _, tr := range b {
			keep(tr, "slow")
		}
	}
	recorded := r.recorded
	r.mu.Unlock()

	sort.Slice(order, func(i, j int) bool { return order[i].tr.seq < order[j].tr.seq })
	out := make([]TraceJSON, 0, len(order))
	for _, k := range order {
		sort.Strings(k.reasons)
		out = append(out, k.tr.render(k.reasons))
	}
	return out, recorded
}

// render converts the trace to its dump shape under the trace's lock, so
// a late span mutation (a queue span ended after its request timed out)
// cannot race the dump.
func (tr *Trace) render(kept []string) TraceJSON {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceJSON{
		TraceID:         tr.idStr,
		Seq:             tr.seq,
		Name:            tr.root.name,
		Status:          tr.status,
		Error:           tr.errMsg,
		DurationSeconds: tr.root.dur.Seconds(),
		Kept:            kept,
		Attrs:           attrMap(tr.root.attrs),
		Spans:           spansJSON(tr.root.children),
	}
}

// attrMap renders attrs as a map: json.Marshal emits map keys sorted, so
// the dump is deterministic. Repeated keys would collide — instrumented
// code uses indexed keys (member_0, member_1, ...) where needed.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

func spansJSON(spans []*Span) []SpanJSON {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanJSON, 0, len(spans))
	for _, sp := range spans {
		out = append(out, SpanJSON{
			Name:            sp.name,
			DurationSeconds: sp.dur.Seconds(),
			Attrs:           attrMap(sp.attrs),
			Children:        spansJSON(sp.children),
		})
	}
	return out
}
