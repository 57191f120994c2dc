// Package trace is the per-request tracing layer on top of internal/obs:
// a Tracer hands out Trace trees (a root span plus nested child spans,
// each carrying a stage name, a duration, and typed attributes) and files
// finished traces into a bounded in-memory flight recorder with tail-keep
// retention (see recorder.go). It exists so incident debugging and
// rollback decisions can attribute latency to a single request — which
// batch it rode in, how long it queued, where its time went — rather than
// to process-level histograms alone.
//
// Spans are timed only through a Stage, the one timing call per pipeline
// stage: it reads the clock once when it ends and hands that reading to
// the stage's /metrics summary and to its span, so the scrape and the
// flight recorder show one measurement two ways.
//
// Contracts, all machine-enforced by hsd-vet:
//
//   - No wall clock, no math/rand. Trace IDs come from a splitmix64
//     finalizer over a caller-provided key and an atomic counter, so a run
//     with a fixed seed emits a reproducible ID sequence (seedlint green).
//     Durations only ever flow through obs.Stopwatch — the timing analyzer
//     polices this package like any other (its import path does not end in
//     "internal/obs", so the obs clock exemption does not extend here).
//
//   - Dark tracing is free. Every method on a nil *Tracer, *Trace, or
//     *Span, and on a Stage without a span, is a no-op on the trace side
//     that allocates nothing, so instrumented hot paths (the serve batcher
//     is hotlint-rooted) pay only a nil check per call when the operator
//     has not lit tracing. Callers must keep argument expressions
//     allocation-free too: constant keys, pre-existing strings, and
//     integer conversions — never fmt or string concat on the dark path.
//     Guard any loop that builds label strings with a nil check on the
//     trace. TestDarkTracingZeroAlloc pins the contract.
//
//   - Observation only. Recording a trace never feeds back into training
//     or inference; parity tests (TestMGDTraceParity, serve's trace parity
//     test) pin traced and dark runs to bit-identical weights and served
//     probabilities.
//
// Internally every mutation of a Trace or its spans locks the owning
// Trace's mutex: spans are ended by whichever goroutine measured them (a
// request handler may time out and finish its trace while the batcher
// flush loop later ends the request's queue stage), and the JSON dump
// renders under the same lock. The locking is legal on hot paths because
// hotlint never traverses into this package (the lock is only ever taken
// when tracing is lit) — mirrored by the hotlint fixture at
// testdata/src/hotlint/internal/obs/trace.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/obs"
)

// mix64 is the splitmix64 output finalizer over a keyed counter: the same
// generator family seeds the rest of the repository (train shuffles, the
// active loop's round keys), so trace IDs inherit the no-wall-clock,
// no-math/rand determinism contract.
func mix64(key, v uint64) uint64 {
	z := key + (v+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The flight recorder's retention sizes.
const (
	DefaultRecent = 64 // last-N ring, any outcome
	DefaultErrors = 64 // errored-trace ring (status >= 400 or SetError)
	DefaultSlowN  = 8  // slowest-N kept per root span name ("endpoint")
)

// Config keys a Tracer's ID generator. The zero value is a usable
// default.
type Config struct {
	// Seed keys the splitmix64 ID generator. Two tracers with the same
	// seed emit the same ID sequence.
	Seed uint64
}

// Tracer mints Trace trees and owns the flight recorder they are filed
// into when finished. A nil *Tracer is the dark tracer: its stages carry
// no span and the entire downstream trace API no-ops.
type Tracer struct {
	key uint64
	seq atomic.Uint64
	rec *recorder
}

// New builds a lit tracer whose flight recorder keeps DefaultRecent
// recent traces, DefaultErrors errored ones and the DefaultSlowN slowest
// per root span name.
func New(cfg Config) *Tracer {
	return &Tracer{
		key: mix64(cfg.Seed, 0x74726163), // "trac": domain-separate the ID key from the raw seed
		rec: newRecorder(DefaultRecent, DefaultErrors, DefaultSlowN),
	}
}

// Stage starts a root stage, which opens a new trace and times its root
// span, named name; ending the stage files the trace. sum is the stage's
// summary (nil for a trace-only root). On a nil tracer the stage has no
// span and records into sum alone.
func (t *Tracer) Stage(name string, sum *obs.Summary) Stage {
	st := Stage{sum: sum}
	if t != nil {
		seq := t.seq.Add(1) - 1
		id := mix64(t.key, seq)
		tr := &Trace{tracer: t, id: id, idStr: hex16(id), seq: seq}
		tr.root = newSpan(tr, name)
		st.sp = tr.root
	}
	return st.started()
}

// hex16 renders v as 16 lowercase hex digits without fmt.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// attrCap is the attribute capacity reserved at span creation; the
// instrumented pipelines set at most a handful per span, so the typed
// setters below append without growing (see their //hsd:noalloc marks).
const attrCap = 8

type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
	attrBool
)

// Attr is one typed key/value attribute on a span. Typed fields (rather
// than an any) keep the setters boxing-free.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
	b    bool
}

// Value returns the attribute's value as an any (dump path only).
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.b
	default:
		return a.s
	}
}

// Trace is one request's span tree plus its outcome (status code, error
// message). All methods are safe on a nil receiver and safe for
// concurrent use; mutations lock the trace's mutex.
type Trace struct {
	tracer *Tracer
	id     uint64
	idStr  string
	seq    uint64

	mu     sync.Mutex
	root   *Span
	status int
	errMsg string
}

// ID returns the trace's 16-hex-digit ID, or "" on a nil trace.
//
//hsd:noalloc
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.idStr
}

// SetStatus records the trace's response status code. Codes >= 400 make
// the trace error-kept by the recorder.
//
//hsd:noalloc
func (tr *Trace) SetStatus(code int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.status = code
	tr.mu.Unlock()
}

// SetError records the trace's error message (first writer wins) and
// makes the trace error-kept by the recorder.
func (tr *Trace) SetError(msg string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.errMsg == "" {
		tr.errMsg = msg
	}
	tr.mu.Unlock()
}

// Span is one timed stage inside a trace. A Stage creates and ends it;
// attribute setters are safe on a nil receiver and lock the owning
// trace's mutex.
type Span struct {
	tr       *Trace
	name     string
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

func newSpan(tr *Trace, name string) *Span {
	return &Span{tr: tr, name: name, attrs: make([]Attr, 0, attrCap)}
}

// Stage starts a stage under sp, timing a child span named name. sum is
// the stage's summary (nil for a span-only stage). Under a nil span —
// tracing dark, or a parent stage without a span — the stage has no span
// and records into sum alone.
func (sp *Span) Stage(name string, sum *obs.Summary) Stage {
	st := Stage{sum: sum}
	if sp != nil {
		c := newSpan(sp.tr, name)
		sp.tr.mu.Lock()
		sp.children = append(sp.children, c)
		sp.tr.mu.Unlock()
		st.sp = c
	}
	return st.started()
}

// end closes the span with d; first end wins. Ending the root span files
// the trace into the flight recorder.
func (sp *Span) end(d time.Duration) {
	if sp == nil {
		return
	}
	tr := sp.tr
	tr.mu.Lock()
	if sp.ended {
		tr.mu.Unlock()
		return
	}
	sp.ended = true
	sp.dur = d
	if sp != tr.root {
		tr.mu.Unlock()
		return
	}
	isErr := tr.status >= 400 || tr.errMsg != ""
	tr.mu.Unlock()
	tr.tracer.rec.record(tr, sp.name, d, isErr)
}

// SetInt sets an integer attribute.
//
//hsd:noalloc
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrInt, i: v})
	sp.tr.mu.Unlock()
}

// SetFloat sets a float attribute.
//
//hsd:noalloc
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrFloat, f: v})
	sp.tr.mu.Unlock()
}

// SetStr sets a string attribute.
//
//hsd:noalloc
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrStr, s: v})
	sp.tr.mu.Unlock()
}

// SetBool sets a boolean attribute.
//
//hsd:noalloc
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrBool, b: v})
	sp.tr.mu.Unlock()
}
