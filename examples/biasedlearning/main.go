// Command biasedlearning demonstrates the paper's central training idea
// (Algorithm 2 and Figure 4): after converging with hard targets, the
// non-hotspot ground truth is softened to [1−ε, ε] and the network is
// fine-tuned, raising hotspot recall at far lower false-alarm cost than
// shifting the decision boundary of the original model.
//
// Run with: go run ./examples/biasedlearning
package main

import (
	"fmt"
	"log"

	"hotspot/internal/dataset"
	"hotspot/internal/feature"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/train"
)

func main() {
	log.SetFlags(0)

	// A compact Industry3-style suite (the paper runs Figure 4 there).
	style := layout.StyleIndustry3()
	counts := layout.Counts{TrainHS: 60, TrainNHS: 140, TestHS: 40, TestNHS: 100}
	fmt.Println("generating labelled clips...")
	suite, err := layout.BuildSuite(style, counts, layout.BuildOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	cfg := train.MGDConfig{
		LearningRate: 0.02, DecayFactor: 0.5, DecayStep: 400,
		BatchSize: 16, MaxIters: 800, ValEvery: 100, Patience: 0,
		BalanceClasses: true, Seed: 7,
	}
	ds := dataset.FromSuite(suite, style)
	tens, err := dataset.TensorSamples(ds.Train, ds.Core(), feature.DefaultTensorConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	testT, err := dataset.TensorSamples(ds.Test, ds.Core(), feature.DefaultTensorConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	trainSet, valSet, err := train.Split(tens, 0.25, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Initial model with hard targets (ε = 0).
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training initial model (ε = 0)...")
	if _, err := train.MGD(net, trainSet, valSet, cfg); err != nil {
		log.Fatal(err)
	}
	initial, err := net.Clone()
	if err != nil {
		log.Fatal(err)
	}
	ev, err := train.NewEvaluator(net, 0)
	if err != nil {
		log.Fatal(err)
	}
	m0, err := ev.EvalSet(testT, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: accuracy %.1f%%, false alarms %d\n\n", 100*m0.Recall, m0.FalseAlarms)

	// Biased fine-tuning vs matched boundary shifting.
	fine := cfg
	fine.MaxIters = 250
	fine.LearningRate = 0.004
	fmt.Printf("%-8s | %-22s | %-22s\n", "", "biased learning", "boundary shifting")
	fmt.Printf("%-8s | %8s %12s | %8s %12s\n", "ε", "accuracy", "false alarms", "accuracy", "false alarms")
	grid := make([]float64, 0, 100)
	for s := 0.0; s < 0.5; s += 0.005 {
		grid = append(grid, s)
	}
	for i, eps := range []float64{0.1, 0.2, 0.3} {
		fine.Eps = eps
		fine.Seed = int64(100 + i)
		if _, err := train.MGD(net, trainSet, valSet, fine); err != nil {
			log.Fatal(err)
		}
		mb, err := ev.EvalSet(testT, 0)
		if err != nil {
			log.Fatal(err)
		}
		_, ms, _, err := train.MatchShiftToRecall(initial, testT, mb.Recall, grid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8.1f | %7.1f%% %12d | %7.1f%% %12d\n",
			eps, 100*mb.Recall, mb.FalseAlarms, 100*ms.Recall, ms.FalseAlarms)
	}
	fmt.Println("\nbiased learning reaches each accuracy level with fewer false alarms,")
	fmt.Println("which is the paper's Figure 4 (each false alarm costs ~10 s of ODST).")
}
