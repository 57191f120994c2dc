// Command hsd-bench regenerates the paper's tables and figures on the
// synthetic benchmark suites.
//
// Examples:
//
//	hsd-bench -exp table1                 # network configuration table
//	hsd-bench -exp table2 -scale 0.01     # full detector comparison
//	hsd-bench -exp fig3                   # SGD vs MGD curves
//	hsd-bench -exp all -cache .benchcache # everything, caching suites
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"hotspot/internal/experiments"
	"hotspot/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hsd-bench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: table1, table2, fig1, fig2, fig3, fig4, activecurve, all")
		scale   = flag.Float64("scale", 0.008, "fraction of the paper's sample counts")
		seed    = flag.Int64("seed", 1, "generation/training seed")
		iters   = flag.Int("iters", 800, "initial-round MGD iterations")
		cache   = flag.String("cache", "", "suite cache directory (strongly recommended)")
		benchs  = flag.String("benchmarks", "", "comma-separated Table 2 benchmarks (default: all four)")
		workers = flag.Int("workers", 0, "worker goroutines for generation, training and evaluation (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()
	parallel.SetDefault(*workers)

	opts := experiments.Options{Scale: *scale, Seed: *seed, CacheDir: *cache, Iters: *iters, Workers: *workers}
	run := func(name string) {
		switch name {
		case "table1":
			s, err := experiments.Table1()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case "table2":
			var names []string
			if *benchs != "" {
				names = strings.Split(*benchs, ",")
			}
			rows, err := experiments.Table2(names, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(experiments.FormatTable2(rows))
		case "fig1":
			_, s, err := experiments.Fig1(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case "fig2":
			s, err := experiments.Fig2()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case "fig3":
			_, s, err := experiments.Fig3(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case "fig4":
			_, s, err := experiments.Fig4(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case "activecurve":
			_, table, err := experiments.ActiveCurve(experiments.ActiveCurveConfig{
				Seed:    *seed,
				Workers: *workers,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(table)
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig1", "fig2", "table2", "fig3", "fig4"} {
			run(name)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(name))
	}
}
