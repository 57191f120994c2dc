package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotspot/internal/nn/fused"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string // where a traced run writes its span file
	workDir  string // parent of the run's temporary files
	size     sizes
	// corrupt flips one bit of the first output a correctness gate
	// compares; the self-check uses it to prove the gates can fail.
	corrupt bool
}

// sizes holds every input-size knob, so the self-check can run each
// workload small while the benchmark runs it at full size.
type sizes struct {
	setupReps   int     // fresh servers timed per serve run
	gateClips   int     // unique clips in the serve gate pass
	bulkClips   int     // clips per serve_bulk request
	hotSet      int     // serve_bulk's repeated clips
	hotShare    float64 // share of serve_bulk clips drawn from the hot set
	bulkReqs    int     // serve_bulk's request pool, cycled by the closed loop
	verifyClips int     // timed serve answers re-checked after timing
	dieCells    int     // scan_eco die side in clip-sized cells
	edits       int     // scan_eco's edit cycle
	maxEditNM   int     // largest scan_eco edit side
	labeled     int     // train's labeled clips
	batch       int     // train MGD batch size
	iters       int     // train MGD iterations per op
	seedCycle   int     // train ops cycle through this many MGD seeds
	replayOps   int     // traced ops whose inputs are replayed through the layers
	layerInputs int     // inputs for the per-layer micro replays
}

func fullSize() sizes {
	return sizes{
		setupReps: 7, gateClips: 16, bulkClips: 32, hotSet: 64, hotShare: 0.25, bulkReqs: 256,
		verifyClips: 64, dieCells: 6, edits: 16, maxEditNM: 720,
		labeled: 256, batch: 16, iters: 2, seedCycle: 4,
		replayOps: 48, layerInputs: 48,
	}
}

// workload is one benchmark workload. execute calls the methods in
// order: generate, setup, gate, phase (once, or twice when traced),
// replay (traced only), finish, close.
type workload interface {
	// generate builds the seeded inputs; untimed.
	generate() error
	// setup brings the system from nothing to ready, timing each fresh
	// set-up; the last one is the system the phases measure.
	setup() ([]time.Duration, error)
	// gate checks outputs before anything is timed and returns the
	// output checksum, which depends on the seed alone.
	gate() (uint64, error)
	// phase runs ops until ph.deadline (and at least ph.minOps).
	phase(ph *phase) error
	// replay re-runs the traced phase's inputs through the lower layers.
	replay(ph *phase) error
	// finish runs the post-timing checks; it may return further set-up
	// samples taken by those checks.
	finish() ([]time.Duration, error)
	// close releases everything the workload started.
	close()
}

func newWorkload(o *options) workload {
	switch o.workload {
	case "serve_bulk":
		return &serveWorkload{o: o}
	case "scan_eco":
		return &scanWorkload{o: o}
	default:
		return &trainWorkload{o: o}
	}
}

// errGate marks a correctness-gate failure: the run reports correct=false.
var errGate = errors.New("correctness gate failed")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// tamper implements options.corrupt: the first output a gate compares
// has its lowest bit flipped.
func (o *options) tamper(bits uint64) uint64 {
	if !o.corrupt {
		return bits
	}
	o.corrupt = false
	return bits ^ 1
}

// opRecord is one op of a phase.
type opRecord struct {
	start, end time.Time
	// due and issued bound the load generator's delay: from when the op
	// could have gone out (the previous reply) to when it did.
	due, issued time.Time
	items       int
	failed      bool
	mismatch    bool // the op's output failed its check
}

func (r opRecord) ms() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// phase is one measured stretch of ops.
type phase struct {
	traced   bool
	deadline time.Time
	minOps   int
	rec      *recorder // nil when untraced
	ops      []opRecord
	spans    []int     // traced: the op span ID of each op
	lateMS   []float64 // each op's issued - due
}

// more reports whether the phase should start another op.
func (ph *phase) more(now time.Time) bool {
	return len(ph.ops) < ph.minOps || now.Before(ph.deadline)
}

// add records a finished op, and its span when traced.
func (ph *phase) add(r opRecord, attrs map[string]float64) {
	ph.ops = append(ph.ops, r)
	ph.lateMS = append(ph.lateMS, float64(r.issued.Sub(r.due))/1e6)
	if ph.rec != nil {
		id := ph.rec.add("op", len(ph.ops)-1, 0, r.start, r.end, attrs)
		ph.spans = append(ph.spans, id)
		ph.rec.add("loadgen.late", len(ph.ops)-1, id, r.due, r.issued, nil)
	}
}

// report is everything one run prints.
type report struct {
	env       map[string]any
	outputs   map[string]any
	notes     map[string]any
	metrics   []metric
	correct   bool
	attempted int
	failed    int
}

type metric struct {
	name, unit string
	value      float64
}

// execute runs one workload end to end and derives its metrics.
func execute(o options) (*report, error) {
	rep := &report{
		env:     stampEnv(o),
		outputs: map[string]any{},
		notes:   map[string]any{},
		correct: true,
	}
	w := newWorkload(&o)
	defer w.close()
	if err := w.generate(); err != nil {
		return nil, fmt.Errorf("input generation: %w", err)
	}
	// Input-generation garbage must not be collected inside timed work.
	runtime.GC()
	setups, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sum, err := w.gate()
	if err != nil {
		return rep.fail(err)
	}
	rep.outputs["checksum"] = fmt.Sprintf("%016x", sum)

	var measured, untraced, traced *phase
	var wall, cpu time.Duration
	if !o.trace {
		measured = &phase{deadline: time.Now().Add(o.seconds), minOps: minMeasuredOps}
		cpu0, t0, steal0 := cpuTime(), time.Now(), hostCPU()
		if err := w.phase(measured); err != nil {
			return nil, fmt.Errorf("timed phase: %w", err)
		}
		wall, cpu = time.Since(t0), cpuTime()-cpu0
		// The share of CPU time the hypervisor gave to other guests while
		// this one wanted it: wall-clock metrics slow down by about as much.
		rep.notes["host_steal_share"] = hostCPU().stealSince(steal0)
	} else {
		untraced = &phase{deadline: time.Now().Add(o.seconds / 2), minOps: minOps}
		if err := w.phase(untraced); err != nil {
			return nil, fmt.Errorf("untraced phase: %w", err)
		}
		rec := newRecorder(o.workload)
		traced = &phase{traced: true, deadline: time.Now().Add(o.seconds / 2), minOps: minOps, rec: rec}
		if err := w.phase(traced); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		if err := w.replay(traced); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	for _, ph := range []*phase{measured, untraced, traced} {
		if ph == nil {
			continue
		}
		rep.attempted += len(ph.ops)
		for _, r := range ph.ops {
			if r.failed {
				rep.failed++
			}
			if r.mismatch {
				rep.correct = false
			}
		}
	}
	if !rep.correct {
		return rep, gateErr("a timed op's output failed its check")
	}
	more, err := w.finish()
	if err != nil {
		return rep.fail(err)
	}
	setups = append(setups, more...)
	if o.trace {
		return rep, rep.perLayer(&o, untraced, traced)
	}
	rep.endToEnd(setups, measured, wall, cpu)
	return rep, nil
}

const (
	// minOps is the fewest ops a traced half runs.
	minOps = 11
	// hiPct is op_hi_ms's percentile. It is fixed, not the highest one a
	// run's op count supports: on a shared two-vCPU guest the last one
	// or two percent of ops are the ones the hypervisor paused, so a
	// higher percentile measures the host's load rather than the program.
	hiPct = 90
	// minMeasuredOps keeps at least ten ops beyond hiPct in every
	// measured run.
	minMeasuredOps = 10 * 100 / (100 - hiPct)
)

// fail turns a gate failure into a correct=false report; other errors
// abort the run without a result.
func (r *report) fail(err error) (*report, error) {
	if !errors.Is(err, errGate) {
		return nil, err
	}
	r.correct = false
	r.notes["gate"] = err.Error()
	r.attempted = max(r.attempted, 1)
	r.failed = max(r.failed, 1)
	return r, err
}

// endToEnd derives the six end-to-end metrics of an untraced run.
func (r *report) endToEnd(setups []time.Duration, ph *phase, wall, cpu time.Duration) {
	lat := make([]float64, 0, len(ph.ops))
	items := 0
	for _, op := range ph.ops {
		if op.failed {
			lat = append(lat, math.Inf(1)) // a failed op misses every latency limit
			continue
		}
		lat = append(lat, op.ms())
		items += op.items
	}
	hi := percentile(lat, hiPct)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	r.metrics = []metric{
		{"setup_s", "s", median(setupS)},
		{"op_p50_ms", "ms", median(lat)},
		{"op_hi_ms", "ms", hi},
		{"items_per_s", "1/s", float64(items) / wall.Seconds()},
		{"cpu_ms_per_item", "ms", float64(cpu) / 1e6 / float64(max(items, 1))},
		{"mem_peak_mb", "MB", peakRSSMB()},
	}
	r.notes["ops"] = len(ph.ops)
	r.notes["op_hi_percentile"] = hiPct
	r.notes["setup_samples"] = len(setups)
	r.notes["timed_s"] = wall.Seconds()
	r.notes["items"] = items
	late, _ := hiPercentile(ph.lateMS)
	r.notes["loadgen_late_hi_ms"] = late
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p/100*float64(len(s))))-1)]
}

// hiPercentile returns the highest percentile with at least ten values
// beyond it — the 11th largest value — and which percentile that is. With
// ten values or fewer it returns the maximum (percentile 100).
func hiPercentile(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ steal, total int64 }

func hostCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal guest ...
	if len(fields) < 9 {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:9] { // guest time is already inside user time
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) stealSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stampEnv records what a number depends on besides the code: the
// machine, the toolchain, the conv kernel, the source and the seed.
func stampEnv(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"kernel":        fused.Vectorized(),
		"git_commit":    gitCommit("."),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git, so a checkout
// that is not a repository reports "none" instead of an enclosing
// repository's commit.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source, assembly file and go.mod under
// root (hidden directories skipped), identifying the measured code even
// where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
