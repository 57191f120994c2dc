// Command perfbench is the repository's benchmark. One invocation runs one
// workload through the public APIs of internal/serve, internal/scan and
// internal/train, checks its outputs bit for bit, and prints its metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloads below and BENCHMARK.json for why each exists):
// serve_bulk, scan_eco and train. The seed fixes every
// generated input; the program under test only ever sees those inputs.
//
// With --trace 0 the run is measured with all tracing dark and the last
// stdout line carries the end-to-end metrics. With --trace 1 the run
// repeats the workload untraced and then traced, replays each traced op's
// inputs through the lower layers' public functions, writes every span to
// a JSONL file and derives the per-layer metrics from that file.
//
// Every stdout line before the last is a JSON report line (environment
// stamp, output checksum, per-metric notes); the last line is the result
// object {"correct","attempted","failed","metrics"}. A failed correctness
// gate prints correct=false and exits 1. perfbench/run.sh builds the
// program from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"serve_bulk", "scan_eco", "train"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload and prints its report.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve_bulk, scan_eco or train")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Float64("seconds", 10, "measured seconds (split into an untraced and a traced half with --trace 1)")
	traceFlag := fs.Int("trace", 0, "1 = traced run that reports the per-layer metrics")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	workDir := fs.String("work-dir", ".bench_build", "directory for the run's temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		spansDir: *spansDir,
		workDir:  *workDir,
		size:     fullSize(),
	}
	rep, err := execute(o)
	if err != nil && !errors.Is(err, errGate) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if werr := rep.write(stdout); werr != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", werr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// write prints the report lines and, last, the result object.
func (r *report) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, line := range []any{
		map[string]any{"env": r.env},
		map[string]any{"outputs": r.outputs},
		map[string]any{"notes": r.notes},
	} {
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	metrics := make(map[string]metricValue, len(r.metrics))
	for _, m := range r.metrics {
		// A failed op counts as an infinite latency, which JSON cannot
		// carry; the largest float stands in for it.
		metrics[m.name] = metricValue{Value: math.Min(m.value, math.MaxFloat64), Unit: m.unit}
	}
	return enc.Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
