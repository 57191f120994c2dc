// Command hsd-scan strides the trained detector across a full synthetic
// die with the streaming scan engine: every DCT block of the die is
// transformed exactly once into a shared block cache, every window is
// scored off that cache through the fused inference engine, which shares
// the first convs' work between overlapping windows, and hot windows are
// merged into region proposals.
// With -edit it additionally demonstrates incremental re-scan: the edit
// region's blocks are invalidated and only the affected windows
// re-scored, bit-identically to a cold scan of the edited die.
//
// Examples:
//
//	hsd-scan -cells 4 -untrained -heat heat.pgm     # random-weight smoke
//	hsd-scan -cells 6 -model model.gob -shift 0.1 -json regions.json
//	hsd-scan -cells 6 -model model.gob -edit 3200,3200,4000,4000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/scan"
)

// scanOutput is the -json document: the die, the pass statistics and the
// merged region proposals (for the cold scan and, with -edit, the rescan).
type scanOutput struct {
	DieNM      int           `json:"die_nm"`
	DieRects   int           `json:"die_rects"`
	WindowsX   int           `json:"windows_x"`
	WindowsY   int           `json:"windows_y"`
	HotWindows int           `json:"hot_windows"`
	Stats      scan.Stats    `json:"stats"`
	Regions    []scan.Region `json:"regions"`

	Rescan *scanOutput `json:"rescan,omitempty"`
}

func output(s *scan.Scanner, res *scan.Result) *scanOutput {
	return &scanOutput{
		DieNM:      s.Die().Frame.W(),
		DieRects:   len(s.Die().Rects),
		WindowsX:   res.WindowsX,
		WindowsY:   res.WindowsY,
		HotWindows: res.HotWindows(),
		Stats:      res.Stats,
		Regions:    res.Regions,
	}
}

// parseEdit parses -edit's "x0,y0,x1,y1" region.
func parseEdit(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("edit %q: want x0,y0,x1,y1", s)
	}
	var v [4]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return geom.Rect{}, fmt.Errorf("edit %q: %w", s, err)
		}
		v[i] = n
	}
	return geom.R(v[0], v[1], v[2], v[3]).Canon(), nil
}

// writeHeat writes the probability grid as a PGM image, one pixel per
// window.
func writeHeat(path string, res *scan.Result) error {
	im := raster.NewImage(res.WindowsX, res.WindowsY)
	copy(im.Pix, res.Probs)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = im.WritePGM(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func summarize(what string, res *scan.Result) {
	fmt.Printf("%s: %d windows (%dx%d), %d hot, %d regions | %d block DCTs, %d gathers, cache hit rate %.4f\n",
		what, res.WindowsX*res.WindowsY, res.WindowsX, res.WindowsY,
		res.HotWindows(), len(res.Regions),
		res.Stats.BlockDCTs, res.Stats.BlockGathers, res.Stats.CacheHitRate)
	for i, r := range res.Regions {
		if i == 10 {
			fmt.Printf("  ... %d more regions\n", len(res.Regions)-10)
			break
		}
		fmt.Printf("  region %d: %v (%d windows, max prob %.4f)\n", i, r.Rect, r.Windows, r.MaxProb)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hsd-scan: ")
	var (
		cells      = flag.Int("cells", 4, "die side in clip-sized cells")
		cellNM     = flag.Int("cell-nm", 0, "cell side in nm (0 = the style default)")
		seed       = flag.Int64("seed", 1, "die generation seed")
		model      = flag.String("model", "", "model checkpoint written by hsd-train (required unless -untrained)")
		untrained  = flag.Bool("untrained", false, "scan with a random-weight network (smoke runs)")
		window     = flag.Int("window", 1200, "scan window side in nm (the detector's clip size)")
		shift      = flag.Float64("shift", 0, "decision-boundary shift λ (Equation (11))")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); the heat map is identical for any value")
		heat       = flag.String("heat", "", "write the probability heat map to this PGM file")
		jsonOut    = flag.String("json", "", "write stats and region proposals to this JSON file")
		edit       = flag.String("edit", "", "after the cold scan, clear region x0,y0,x1,y1 and incrementally re-scan")
		metricsOut = flag.String("metrics-out", "", "dump the metrics registry as scrape text to this file at exit")
		traceOut   = flag.String("trace-out", "", "record per-pass trace trees and dump the flight recorder as JSONL to this file at exit")
	)
	flag.Parse()
	parallel.SetDefault(*workers)
	obs.SetBuildInfo(obs.Default(), obs.L("tool", "hsd-scan"))

	var net *nn.Network
	var err error
	switch {
	case *untrained:
		net, err = nn.NewPaperNet(nn.DefaultPaperNetConfig())
	case *model == "":
		log.Fatal("-model is required (or pass -untrained for a random-weight smoke scan)")
	default:
		var f *os.File
		if f, err = os.Open(*model); err == nil {
			net, err = nn.Load(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	die, err := layout.GenerateDie(layout.DieConfig{
		CellsX: *cells, CellsY: *cells, CellNM: *cellNM, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := scan.DefaultConfig()
	cfg.WindowNM = *window
	cfg.Workers = *workers
	cfg.Shift = *shift
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
		cfg.Tracer = tracer
	}
	s, err := scan.New(cfg, net, die)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Scan()
	if err != nil {
		log.Fatal(err)
	}
	summarize("scan", res)
	out := output(s, res)

	if *edit != "" {
		region, err := parseEdit(*edit)
		if err != nil {
			log.Fatal(err)
		}
		inc, err := s.Rescan(layout.Edit{Region: region})
		if err != nil {
			log.Fatal(err)
		}
		summarize("rescan", inc)
		out.Rescan = output(s, inc)
		res = inc // the heat map reflects the edited die
	}

	if *heat != "" {
		if err := writeHeat(*heat, res); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		err = obs.Default().WriteText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		err = tracer.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	}
}
