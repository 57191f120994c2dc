package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// The 2×2-cell die (2400 nm, 24×24 blocks, 13×13 windows) and the edit
// region drive exact expectations: 576 cold block DCTs; the edit
// (300,300)-(800,800) overlaps blocks [3,8)² → 25 dirty blocks, and the
// windows gathering them are wx,wy ∈ [0,8) → 64 re-scored.
const (
	wantWindows     = 13 * 13
	wantBlockDCTs   = 24 * 24
	wantDirtyBlocks = 25
	wantRescanWins  = 64
)

type scanStats struct {
	BlockDCTs    int     `json:"block_dcts"`
	BlockGathers int64   `json:"block_gathers"`
	Windows      int     `json:"windows"`
	DirtyBlocks  int     `json:"dirty_blocks"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

type scanOutput struct {
	WindowsX   int       `json:"windows_x"`
	WindowsY   int       `json:"windows_y"`
	HotWindows int       `json:"hot_windows"`
	Stats      scanStats `json:"stats"`
	Regions    []struct {
		Windows int `json:"windows"`
	} `json:"regions"`
	Rescan *scanOutput `json:"rescan"`
}

// scanStep runs hsd-scan on a tiny synthetic die with the decision
// boundary shifted so every window is hot, then asserts the structural
// invariants of the scan engine, which hold for any model weights: the
// window grid, exactly one merged region covering the die, one block DCT
// per die block, the exact shared-cache hit rate those counts imply, the
// incremental re-scan's dirty-block accounting, and the scan series in
// the metrics dump.
func scanStep(dir string) error {
	jsonPath := filepath.Join(dir, "scan.json")
	heatPath := filepath.Join(dir, "heat.pgm")
	metricsPath := filepath.Join(dir, "scan-metrics.txt")
	if err := runBin(dir, "hsd-scan",
		"-cells", "2", "-untrained", "-seed", "3", "-workers", "2",
		"-shift", "0.5", // boundary at 0: every window is hot, whatever the weights
		"-edit", "300,300,800,800",
		"-json", jsonPath, "-heat", heatPath, "-metrics-out", metricsPath); err != nil {
		return err
	}

	if err := checkScanOutput(jsonPath); err != nil {
		return err
	}
	if err := checkHeat(heatPath); err != nil {
		return err
	}
	// The scan counters, the cache-hit gauge and the scan stage
	// summaries; cold scan + rescan run 576 + 25 transforms, all demand
	// beyond that served by the cache.
	if err := checkSeries(metricsPath,
		"hsd_scan_block_dcts_total",
		"hsd_scan_block_gathers_total",
		"hsd_scan_windows_total",
		"hsd_scan_dirty_blocks_total",
		"hsd_scan_block_cache_hit_rate",
		`stage="scan/extract"`,
		`stage="scan/share"`,
		`stage="scan/infer"`,
		`stage="scan/regions"`,
		"hsd_scan_block_dcts_total 601",
	); err != nil {
		return err
	}
	fmt.Println("smoke: scan metrics OK (scan counters, cache-hit gauge, stage summaries)")
	return nil
}

// checkScanOutput asserts the scan JSON's window grid, regions, block
// accounting and rescan section.
func checkScanOutput(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var out scanOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("scan JSON: %w", err)
	}
	if out.WindowsX*out.WindowsY != wantWindows || out.HotWindows != wantWindows {
		return fmt.Errorf("scan: %dx%d windows, %d hot, want all %d hot",
			out.WindowsX, out.WindowsY, out.HotWindows, wantWindows)
	}
	if len(out.Regions) != 1 || out.Regions[0].Windows != wantWindows {
		return fmt.Errorf("scan: %d regions %v, want 1 region of %d windows", len(out.Regions), out.Regions, wantWindows)
	}
	if out.Stats.BlockDCTs != wantBlockDCTs {
		return fmt.Errorf("scan: %d block DCTs, want exactly one per block (%d)", out.Stats.BlockDCTs, wantBlockDCTs)
	}
	wantHit := float64(out.Stats.BlockGathers) / float64(out.Stats.BlockGathers+int64(out.Stats.BlockDCTs))
	if math.Float64bits(out.Stats.CacheHitRate) != math.Float64bits(wantHit) {
		return fmt.Errorf("scan: cache hit rate %v, want %v", out.Stats.CacheHitRate, wantHit)
	}
	if out.Rescan == nil {
		return fmt.Errorf("scan JSON has no rescan section")
	}
	r := out.Rescan
	if r.Stats.DirtyBlocks != wantDirtyBlocks || r.Stats.BlockDCTs != wantDirtyBlocks {
		return fmt.Errorf("rescan: %d dirty blocks / %d DCTs, want %d", r.Stats.DirtyBlocks, r.Stats.BlockDCTs, wantDirtyBlocks)
	}
	if r.Stats.Windows != wantRescanWins {
		return fmt.Errorf("rescan re-scored %d windows, want %d", r.Stats.Windows, wantRescanWins)
	}
	if len(r.Regions) != 1 {
		return fmt.Errorf("rescan: %d regions, want 1", len(r.Regions))
	}
	fmt.Printf("smoke: scan JSON OK (%d windows, %d block DCTs, hit rate %.4f, %d dirty blocks)\n",
		wantWindows, out.Stats.BlockDCTs, out.Stats.CacheHitRate, r.Stats.DirtyBlocks)
	return nil
}

// checkHeat asserts the heat map is a PGM with one pixel per window.
func checkHeat(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want := fmt.Sprintf("P5\n%d %d\n", 13, 13)
	if !strings.HasPrefix(string(raw), want) {
		return fmt.Errorf("heat map does not start with %q: %q", want, raw[:min(len(raw), 16)])
	}
	return nil
}
