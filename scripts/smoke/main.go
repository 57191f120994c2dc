// Command smoke is the end-to-end smoke of the four service binaries. It
// builds hsd-serve, hsd-train, hsd-scan and hsd-active once, into one
// temporary directory, and runs them in turn.
//
// hsd-serve boots four times on an ephemeral port with a random-weight
// network:
//
//   - public: predict, healthz, metrics, and the debug surface dark
//     without -pprof;
//   - debug: -pprof serves the profiling and registry dump endpoints;
//   - trace-dark: without -trace the flight recorder does not exist, so
//     GET /debug/trace 404s like the pprof surface;
//   - trace-lit: -trace with mixed traffic — fast cache-less predicts, a
//     concurrency burst against a 2-slot queue until a 429 lands, and one
//     final quiescent predict — asserting the recorder's tail-keep
//     retention and trace shapes: the 429 is kept with reason "error", a
//     "slow" keep exists, the final predict's trace carries decode,
//     raster and hash spans and a queue span naming its batch trace, the
//     batch trace names the member request back and carries extract/infer
//     stage spans, and the /metrics exposition links the slowest request
//     via a q="max" trace-ID exemplar.
//
// Every boot ends with SIGINT and verifies a clean drain and zero exit.
// Then hsd-train checks its telemetry and metrics (trainStep), hsd-scan
// its window, region, block-cache and rescan accounting (scanStep), and
// hsd-active its exact budget accounting (activeStep). scripts/check.sh
// runs it as the smoke leg of the gate.
//
// It is deliberately a Go program rather than shell: the checks (JSON
// shape, probability range, metrics counters, exit status) are exact,
// and it runs anywhere the toolchain does.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"hotspot/internal/parallel"
)

const killAfter = 60 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("smoke: hsd-serve, hsd-train, hsd-scan and hsd-active OK")
}

// server is one booted hsd-serve process with its stdout scanner.
type server struct {
	cmd   *exec.Cmd
	out   *bufio.Scanner
	base  string
	guard *time.Timer
}

// boot starts the binary with the given extra flags and waits for the
// listen banner. The kill guard shoots the process after killAfter so a
// wedged server fails the gate instead of hanging it.
func boot(bin string, extra ...string) (*server, error) {
	args := append([]string{"-untrained", "-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	guard := time.AfterFunc(killAfter, func() { _ = cmd.Process.Kill() })
	out := bufio.NewScanner(stdout)
	addr := ""
	for out.Scan() {
		line := out.Text()
		fmt.Println(line)
		if rest, ok := strings.CutPrefix(line, "hsd-serve: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		guard.Stop()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("server never printed its listen address (scan err: %v)", out.Err())
	}
	return &server{cmd: cmd, out: out, base: "http://" + addr, guard: guard}, nil
}

// kill hard-stops the server after a failed step.
func (s *server) kill() {
	s.guard.Stop()
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// shutdown sends SIGINT and verifies the drain banner and a zero exit.
func (s *server) shutdown() error {
	defer s.guard.Stop()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return fmt.Errorf("interrupt: %w", err)
	}
	drained := false
	for s.out.Scan() {
		line := s.out.Text()
		fmt.Println(line)
		if strings.Contains(line, "drained, bye") {
			drained = true
		}
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	if !drained {
		return fmt.Errorf("server exited without the drain banner")
	}
	return nil
}

func run() error {
	tmp, err := os.MkdirTemp("", "hsd-smoke-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(tmp) }()

	build := exec.Command("go", "build", "-o", tmp+string(filepath.Separator),
		"./cmd/hsd-serve", "./cmd/hsd-train", "./cmd/hsd-scan", "./cmd/hsd-active")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}

	serve := filepath.Join(tmp, "hsd-serve")
	for _, step := range []func(string) error{publicSurface, debugSurface, darkTrace, litTrace} {
		if err := step(serve); err != nil {
			return err
		}
	}
	fmt.Println("smoke: hsd-serve predict/healthz/metrics/pprof/trace/shutdown OK")
	for _, step := range []func(string) error{trainStep, scanStep, activeStep} {
		if err := step(tmp); err != nil {
			return err
		}
	}
	return nil
}

// runBin runs the built binary name from dir with args, its output on
// ours, and fails unless it exits zero.
func runBin(dir, name string, args ...string) error {
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// checkSeries asserts the metrics dump at path contains every series, each
// an exact substring of the exposition text.
func checkSeries(path string, series ...string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(raw)
	for _, s := range series {
		if !strings.Contains(text, s) {
			return fmt.Errorf("%s: metrics dump missing %q in:\n%s", filepath.Base(path), s, text)
		}
	}
	return nil
}

// publicSurface boots without -pprof and checks predict, healthz, the
// metrics exposition (including the obs-registry series behind it), and
// that the debug endpoints are dark by default.
func publicSurface(bin string) error {
	srv, err := boot(bin, "-max-batch", "8", "-max-wait", "2ms")
	if err != nil {
		return err
	}
	fail := func(step string, err error) error {
		srv.kill()
		return fmt.Errorf("%s: %w", step, err)
	}

	// One vertical wire through a 1200 nm clip, plus a repeat of the same
	// clip so the metrics check can see a cache hit.
	body := []byte(`{"frame":{"x0":0,"y0":0,"x1":1200,"y1":1200},` +
		`"rects":[{"x0":500,"y0":0,"x1":560,"y1":1200}]}`)
	for i := 0; i < 2; i++ {
		prob, err := postPredict(srv.base, body)
		if err != nil {
			return fail("predict", err)
		}
		if prob < 0 || prob > 1 {
			return fail("predict", fmt.Errorf("probability %v outside [0,1]", prob))
		}
	}

	health, err := get(srv.base + "/healthz")
	if err != nil {
		return fail("healthz", err)
	}
	if !strings.Contains(health, "ok") {
		return fail("healthz", fmt.Errorf("body %q", health))
	}

	metrics, err := get(srv.base + "/metrics")
	if err != nil {
		return fail("metrics", err)
	}
	for _, want := range []string{
		`serve_requests_total{endpoint="predict",status="200"} 2`,
		"serve_cache_hits_total 1",
		"serve_cache_entries 1",
		"serve_cache_hit_rate",
		"serve_batch_size_total",
		`serve_stage_seconds_count{stage="extract"}`,
		`serve_stage_seconds_count{stage="queue"}`,
		`serve_stage_seconds{stage="infer",q="p99"}`,
	} {
		if !strings.Contains(metrics, want) {
			return fail("metrics", fmt.Errorf("missing %q in:\n%s", want, metrics))
		}
	}

	// Without -pprof the debug surface must not exist.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/obs"} {
		code, err := getStatus(srv.base + path)
		if err != nil {
			return fail("debug-off", err)
		}
		if code != http.StatusNotFound {
			return fail("debug-off", fmt.Errorf("%s: status %d, want 404", path, code))
		}
	}

	return srv.shutdown()
}

// debugSurface boots with -pprof and checks the profiling and registry
// dump endpoints actually serve.
func debugSurface(bin string) error {
	srv, err := boot(bin, "-pprof", "-max-batch", "8", "-max-wait", "2ms")
	if err != nil {
		return err
	}
	fail := func(step string, err error) error {
		srv.kill()
		return fmt.Errorf("%s: %w", step, err)
	}

	cmdline, err := get(srv.base + "/debug/pprof/cmdline")
	if err != nil {
		return fail("pprof-cmdline", err)
	}
	if len(cmdline) == 0 {
		return fail("pprof-cmdline", fmt.Errorf("empty body"))
	}

	obsDump, err := get(srv.base + "/debug/obs")
	if err != nil {
		return fail("debug-obs", err)
	}
	for _, want := range []string{"# server registry", "# process registry"} {
		if !strings.Contains(obsDump, want) {
			return fail("debug-obs", fmt.Errorf("missing %q in:\n%s", want, obsDump))
		}
	}

	return srv.shutdown()
}

// dump mirrors trace.DumpJSON; the smoke decodes the wire shape with its
// own structs so a dump-format regression fails here, not just in unit
// tests.
type dump struct {
	Recorded int64   `json:"recorded"`
	Kept     int     `json:"kept"`
	Dropped  int64   `json:"dropped"`
	Traces   []trace `json:"traces"`
}

type trace struct {
	TraceID string         `json:"trace_id"`
	Seq     uint64         `json:"seq"`
	Name    string         `json:"name"`
	Status  int            `json:"status"`
	Error   string         `json:"error"`
	Kept    []string       `json:"kept"`
	Attrs   map[string]any `json:"attrs"`
	Spans   []span         `json:"spans"`
}

type span struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []span         `json:"children"`
}

// darkTrace boots without -trace: the flight recorder must not exist,
// so GET /debug/trace 404s like any unknown path, while the service
// itself answers.
func darkTrace(bin string) error {
	srv, err := boot(bin)
	if err != nil {
		return err
	}
	fail := func(step string, err error) error {
		srv.kill()
		return fmt.Errorf("dark %s: %w", step, err)
	}
	if code, _, err := post(srv.base+"/v1/predict", clip(0)); err != nil || code != http.StatusOK {
		return fail("predict", fmt.Errorf("status %d, err %v", code, err))
	}
	code, err := getStatus(srv.base + "/debug/trace")
	if err != nil {
		return fail("debug-trace", err)
	}
	if code != http.StatusNotFound {
		return fail("debug-trace", fmt.Errorf("status %d, want 404 when tracing is dark", code))
	}
	return srv.shutdown()
}

// litTrace boots with -trace on a deliberately tiny queue, drives mixed
// traffic, and checks retention, trace shapes, batch linkage, and the
// metrics exemplar.
func litTrace(bin string) error {
	srv, err := boot(bin, "-trace", "-queue", "2", "-max-batch", "4", "-max-wait", "20ms", "-cache", "0")
	if err != nil {
		return err
	}
	fail := func(step string, err error) error {
		srv.kill()
		return fmt.Errorf("lit %s: %w", step, err)
	}

	// Warm-up predicts: distinct clips (the cache is off anyway), all 200.
	next := 0
	for i := 0; i < 3; i++ {
		code, body, err := post(srv.base+"/v1/predict", clip(next))
		next++
		if err != nil || code != http.StatusOK {
			return fail("warmup", fmt.Errorf("status %d, err %v: %s", code, err, body))
		}
	}

	// Concurrency bursts against the 2-slot queue until a 429 lands. Each
	// attempt fires 16 distinct clips at once over the repo's own bounded
	// fan-out; with queue 2 + 20ms flush deadline the overflow fails fast.
	const burst = 16
	pool := parallel.New(burst)
	saw429 := false
	for attempt := 0; attempt < 20 && !saw429; attempt++ {
		base := next
		codes, err := parallel.Map(pool, burst, func(_, i int) (int, error) {
			c, _, err := post(srv.base+"/v1/predict", clip(base+i))
			return c, err
		})
		next += burst
		if err != nil {
			return fail("burst", err)
		}
		for _, c := range codes {
			if c == http.StatusTooManyRequests {
				saw429 = true
			}
		}
	}
	if !saw429 {
		return fail("burst", fmt.Errorf("no 429 after 20 bursts against a 2-slot queue"))
	}

	// One final quiescent predict: with the burst drained, this request
	// and its batch are the most recent traces — guaranteed in the recent
	// ring for the linkage assertions.
	time.Sleep(100 * time.Millisecond)
	code, body, err := post(srv.base+"/v1/predict", clip(next))
	if err != nil || code != http.StatusOK {
		return fail("final predict", fmt.Errorf("status %d, err %v: %s", code, err, body))
	}

	// The batch trace finishes on the flush loop after replies go out:
	// poll the dump until the final predict's batch is linked (sleep-count
	// bounded at ~5s so a wedged flush fails the leg, not the kill guard).
	var d dump
	var last, batch *trace
	for attempt := 0; ; attempt++ {
		raw, err := get(srv.base + "/debug/trace")
		if err != nil {
			return fail("debug-trace", err)
		}
		d = dump{}
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			return fail("debug-trace", fmt.Errorf("bad JSON: %w\n%s", err, raw))
		}
		last, batch = findLinkedPair(&d)
		if batch != nil || attempt >= 250 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Retention accounting: everything the traffic produced was recorded,
	// and the kept set matches the trace list.
	if d.Recorded < 20 {
		return fail("retention", fmt.Errorf("recorded %d traces, want >= 20", d.Recorded))
	}
	if d.Kept != len(d.Traces) || d.Dropped != d.Recorded-int64(d.Kept) {
		return fail("retention", fmt.Errorf("inconsistent accounting: recorded %d kept %d dropped %d traces %d",
			d.Recorded, d.Kept, d.Dropped, len(d.Traces)))
	}

	// The 429 survived the boring traffic that followed: kept as "error".
	found429 := false
	sawSlow := false
	for i := range d.Traces {
		tr := &d.Traces[i]
		for _, k := range tr.Kept {
			if k == "slow" {
				sawSlow = true
			}
		}
		if tr.Status != http.StatusTooManyRequests {
			continue
		}
		for _, k := range tr.Kept {
			if k == "error" {
				found429 = true
			}
		}
		if tr.Error == "" {
			return fail("429-trace", fmt.Errorf("429 trace %s carries no error message", tr.TraceID))
		}
	}
	if !found429 {
		return fail("429-trace", fmt.Errorf("no 429 trace kept with reason \"error\" among %d traces", len(d.Traces)))
	}
	if !sawSlow {
		return fail("slow-keep", fmt.Errorf("no trace kept with reason \"slow\""))
	}

	// Stage tree + batch linkage for the final predict.
	if last == nil {
		return fail("linkage", fmt.Errorf("no 200 predict trace with a queue span in the dump"))
	}
	if batch == nil {
		return fail("linkage", fmt.Errorf("predict %s names batch %q but no such batch trace was dumped",
			last.TraceID, batchID(last)))
	}
	for _, name := range []string{"decode", "raster", "hash"} {
		if !hasSpan(last.Spans, name) {
			return fail("linkage", fmt.Errorf("predict trace %s has no %s span", last.TraceID, name))
		}
	}
	if !hasSpan(batch.Spans, "extract") || !hasSpan(batch.Spans, "infer") {
		return fail("linkage", fmt.Errorf("batch trace %s missing extract/infer spans", batch.TraceID))
	}
	member := false
	for k, v := range batch.Attrs {
		if strings.HasPrefix(k, "member_") && v == last.TraceID {
			member = true
		}
	}
	if !member {
		return fail("linkage", fmt.Errorf("batch %s does not name member %s: %v", batch.TraceID, last.TraceID, batch.Attrs))
	}

	// The scrape links the slowest windowed request into the recorder, and
	// carries the build-info gauge.
	metrics, err := get(srv.base + "/metrics")
	if err != nil {
		return fail("metrics", err)
	}
	for _, want := range []string{`q="max",trace_id="`, `hsd_build_info{`} {
		if !strings.Contains(metrics, want) {
			return fail("metrics", fmt.Errorf("missing %q in:\n%s", want, metrics))
		}
	}

	return srv.shutdown()
}

// findLinkedPair returns the newest 200 predict trace that has a queue
// span naming a batch, and the batch trace it names (nil until the flush
// loop has finished that batch's trace).
func findLinkedPair(d *dump) (last, batch *trace) {
	for i := range d.Traces {
		tr := &d.Traces[i]
		if tr.Name == "predict" && tr.Status == http.StatusOK && batchID(tr) != "" {
			if last == nil || tr.Seq > last.Seq {
				last = tr
			}
		}
	}
	if last == nil {
		return nil, nil
	}
	want := batchID(last)
	for i := range d.Traces {
		tr := &d.Traces[i]
		if tr.Name == "batch" && tr.TraceID == want {
			return last, tr
		}
	}
	return last, nil
}

// batchID extracts the batch_id attribute from a predict trace's queue
// span ("" when absent).
func batchID(tr *trace) string {
	for _, sp := range tr.Spans {
		if sp.Name == "queue" {
			if id, ok := sp.Attrs["batch_id"].(string); ok {
				return id
			}
		}
	}
	return ""
}

func hasSpan(spans []span, name string) bool {
	for _, sp := range spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// clip builds a distinct predict request body: a vertical wire whose
// position varies with i, so every clip hashes differently.
func clip(i int) []byte {
	x0 := 40 + (i%20)*55
	y0 := (i / 20 * 37) % 600
	return []byte(fmt.Sprintf(`{"frame":{"x0":0,"y0":0,"x1":1200,"y1":1200},`+
		`"rects":[{"x0":%d,"y0":%d,"x1":%d,"y1":1200}]}`, x0, y0, x0+60))
}

func postPredict(base string, body []byte) (float64, error) {
	code, raw, err := post(base+"/v1/predict", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", code, raw)
	}
	var pr struct {
		Prob    *float64 `json:"prob"`
		Hotspot *bool    `json:"hotspot"`
	}
	if err := json.Unmarshal([]byte(raw), &pr); err != nil {
		return 0, fmt.Errorf("bad JSON %q: %w", raw, err)
	}
	if pr.Prob == nil || pr.Hotspot == nil {
		return 0, fmt.Errorf("response %q missing prob/hotspot", raw)
	}
	return *pr.Prob, nil
}

func post(url string, body []byte) (int, string, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(raw), nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return string(raw), nil
}

// getStatus fetches a URL and returns only the status code.
func getStatus(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
