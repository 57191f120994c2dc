// Command hsd-eval evaluates a trained model on a suite's test set and
// prints the Table-2-style row (false alarms, CPU, ODST, accuracy).
//
// Example:
//
//	hsd-eval -data iccad.gob -model model.gob
//	hsd-eval -data iccad.gob -model model.gob -shift 0.1   # shifted boundary
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hotspot/internal/core"
	"hotspot/internal/dataset"
	"hotspot/internal/eval"
	"hotspot/internal/obs"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hsd-eval: ")
	var (
		data       = flag.String("data", "", "suite file written by hsd-gen (required)")
		model      = flag.String("model", "", "model file written by hsd-train (required)")
		shift      = flag.Float64("shift", 0, "decision-boundary shift λ (Equation (11))")
		workers    = flag.Int("workers", 0, "worker goroutines for extraction and inference (0 = GOMAXPROCS); metrics are identical for any value")
		metricsOut = flag.String("metrics-out", "", "dump the metrics registry as scrape text to this file at exit")
	)
	flag.Parse()
	parallel.SetDefault(*workers)
	obs.SetBuildInfo(obs.Default(), obs.L("tool", "hsd-eval"))
	if *data == "" || *model == "" {
		log.Fatal("-data and -model are required")
	}

	f, err := os.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.Load(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}

	mf, err := os.Open(*model)
	if err != nil {
		log.Fatal(err)
	}
	det, err := core.LoadDetector(mf, core.DefaultConfig())
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}

	watch := obs.NewStopwatch()
	testT, err := dataset.TensorSamples(ds.Test, ds.Core(), det.Config().Feature, *workers)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := train.NewEvaluator(det.Network(), *workers)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ev.EvalSet(testT, *shift)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eval.NewResult("Ours", ds.Name, m.TP, m.FP, m.FN, watch.Elapsed())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %6s %10s %12s %9s\n", "Bench", "FA#", "CPU(s)", "ODST(s)", "Accu")
	fmt.Printf("%-10s %s\n", res.Benchmark, res.Row())

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			log.Fatal(err)
		}
	}
}

// writeMetrics dumps the process metrics registry scrape text to path.
func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.Default().WriteText(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
