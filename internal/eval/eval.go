// Package eval computes the paper's evaluation metrics: Accuracy
// (Definition 1, hotspot recall), False Alarm (Definition 2), and the
// overall detection and simulation time ODST (Definition 3), which charges
// every predicted hotspot — true or false — the lithography verification
// cost.
package eval

import (
	"fmt"
	"time"

	"hotspot/internal/litho"
)

// SimSecondsPerClip is the per-clip lithography simulation time the paper
// charges when computing ODST (≈10 s per instance, from the ICCAD 2013
// industrial simulator it cites). The value is no longer a free-standing
// prose constant: it is litho's explicit cost model — the default
// five-corner process at litho.ODSTSecondsPerCorner per corner — so Table
// 2 accounting and the active-learning label budget charge the same price.
var SimSecondsPerClip = litho.DefaultLabelCost()

// Result is one Table 2 cell group: a detector's performance on one
// benchmark.
type Result struct {
	Detector  string
	Benchmark string
	// FalseAlarms is the count of non-hotspots flagged as hotspots.
	FalseAlarms int
	// CPU is the model evaluation (testing) time.
	CPU time.Duration
	// ODST is the overall detection and simulation time in seconds.
	ODST float64
	// Accuracy is hotspot recall in [0, 1].
	Accuracy float64
	// TP/FN complete the confusion counts for reproducibility.
	TP, FN int
}

// ODST computes Definition 3: model evaluation time plus the simulation
// penalty for every clip predicted hotspot (true positives and false
// alarms).
func ODST(cpu time.Duration, predictedHotspots int) float64 {
	return cpu.Seconds() + float64(SimSecondsPerClip*float64(predictedHotspots))
}

// NewResult assembles a Result from confusion counts and timing.
func NewResult(detector, benchmark string, tp, fp, fn int, cpu time.Duration) (Result, error) {
	if tp < 0 || fp < 0 || fn < 0 {
		return Result{}, fmt.Errorf("eval: negative confusion counts")
	}
	if cpu < 0 {
		return Result{}, fmt.Errorf("eval: negative CPU time")
	}
	r := Result{
		Detector:    detector,
		Benchmark:   benchmark,
		FalseAlarms: fp,
		CPU:         cpu,
		ODST:        ODST(cpu, tp+fp),
		TP:          tp,
		FN:          fn,
	}
	if tp+fn > 0 {
		r.Accuracy = float64(tp) / float64(tp+fn)
	}
	return r, nil
}

// Row renders the Result in Table 2 column order:
// FA#, CPU(s), ODST(s), Accu(%).
func (r Result) Row() string {
	return fmt.Sprintf("%6d %10.1f %12.1f %8.1f%%",
		r.FalseAlarms, r.CPU.Seconds(), r.ODST, 100*r.Accuracy)
}
