// Package scan is the full-layout streaming scan engine: it strides the
// trained detector across an entire die (millions of overlapping windows
// on real designs) instead of classifying isolated clips.
//
// The core optimization is stride quantization to the DCT block grid.
// The paper's feature tensor divides a window into Blocks×Blocks pixel
// blocks and keeps K zig-zag-truncated DCT coefficients per block; with
// the window stride fixed to one block, every block of the die is covered
// by up to Blocks² overlapping windows that all need exactly the same
// coefficient vector for it. A naive scanner re-rasterizes and
// re-transforms each window — recomputing each block DCT up to Blocks²
// (144) times — while this engine computes every block DCT exactly once
// per die into a block cache, the input plane of a fused.Grid. The same
// holds one level up: the network's first convs (conv1-1 and conv1-2 on
// Table 1) compute the same sums for every window that covers a block far
// enough from the window's edge, so the Grid keeps die-level maps of them
// and each window computes only the ring of positions near its edge.
//
// The passes run on the shared worker-pool substrate under its standing
// determinism contract: the extract pass shards the die into tiles whose
// blocks land in disjoint, index-addressed cache slots; the share step
// brings the Grid's maps up to date; the score pass fans window rows
// across the evaluator's per-worker engines, which score four windows of a
// row per call off the shared Grid, into index-addressed probability
// slots. Windows near tile boundaries read blocks owned by neighbouring
// tiles — halo reads into the shared cache, never halo recomputation,
// which is what keeps "exactly once" true. Results are bit-identical under
// any worker count, and bit-identical to the per-clip path
// (feature.ExtractTensor + train.Evaluator) on every window: both paths
// run the same feature.BlockEncoder kernel and the same fused inference
// engines, whose grid path equals their per-window path bit for bit.
//
// After a layout edit, Rescan invalidates only the blocks the edit
// touches and rescores only the windows that gather a dirty block,
// producing bit-for-bit the heat map a cold scan of the edited die would.
package scan

import (
	"fmt"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/train"
)

// Config parameterizes a scanner.
type Config struct {
	// Feature is the tensor extraction configuration; it must match the
	// configuration the model was trained with.
	Feature feature.TensorConfig
	// WindowNM is the scan window side in nanometres (the detector's clip
	// size; the paper uses 1200). The scan stride is WindowNM/Blocks — one
	// DCT block — in both axes.
	WindowNM int
	// TileBlocks is the tile side in blocks for the extract-pass fan-out;
	// 0 means 16.
	TileBlocks int
	// Workers bounds both passes' parallelism; 0 means parallel.Default().
	Workers int
	// Shift is the decision-boundary shift of train.Decide: a window is
	// hot when prob > 0.5 − Shift.
	Shift float64
	// Tracer, when non-nil, records one trace tree per (re)scan pass:
	// extract/infer/regions spans with per-tile and per-window-row child
	// spans and cache-attribution attributes. Observation only — the heat
	// map is bit-identical with tracing lit or dark. Nil is free.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors the paper's clip geometry: 1200 nm windows under
// the default feature tensor configuration.
func DefaultConfig() Config {
	return Config{Feature: feature.DefaultTensorConfig(), WindowNM: 1200, TileBlocks: 16}
}

// Stats describes the work one pass performed.
type Stats struct {
	// BlockDCTs is the number of block transforms computed this pass.
	BlockDCTs int `json:"block_dcts"`
	// BlockGathers is the number of coefficient vectors served from the
	// cache to scored windows (Blocks² per scored window: each copies its
	// blocks' coefficients into its first conv's plane).
	BlockGathers int64 `json:"block_gathers"`
	// Windows is the number of windows (re)scored this pass.
	Windows int `json:"windows"`
	// DirtyBlocks is the number of invalidated blocks (rescan only).
	DirtyBlocks int `json:"dirty_blocks"`
	// CacheHitRate is BlockGathers/(BlockGathers+BlockDCTs): the fraction
	// of block-coefficient demands served without a transform.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Region is one merged run of hot windows: a region proposal.
type Region struct {
	// Rect is the union bounding box of the member windows, in die
	// coordinates (nm).
	Rect geom.Rect `json:"rect"`
	// Windows is the number of hot windows merged into the region.
	Windows int `json:"windows"`
	// MaxProb is the highest hotspot probability inside the region.
	MaxProb float64 `json:"max_prob"`
}

// Result is one pass' output: the heat map and its derived proposals.
type Result struct {
	// WindowsX, WindowsY give the window grid; window (wx, wy) sits at
	// die offset (wx, wy) blocks.
	WindowsX, WindowsY int
	// Probs is the row-major [WindowsY][WindowsX] hotspot heat map.
	Probs []float64
	// Hot marks windows past the decision boundary.
	Hot []bool
	// Regions are the merged hot-window proposals, in first-hot-window
	// scan order.
	Regions []Region
	// Stats describes the pass' work.
	Stats Stats
}

// HotWindows counts the hot windows in the heat map.
func (r *Result) HotWindows() int {
	n := 0
	for _, h := range r.Hot {
		if h {
			n++
		}
	}
	return n
}

// workerState is one worker's scratch: a block encoder and the distinct
// rows of the tile it encodes, whose storage is reused from tile to tile,
// so the extract pass allocates no rasters once the workers are warm.
type workerState struct {
	enc  *feature.BlockEncoder
	rows raster.Rows
}

// Scanner scans one die. It owns the Grid — the block cache and the
// shared conv maps — and the last heat map, which is what makes
// incremental re-scan possible. The network's weights must not change
// between passes: clean windows keep their probabilities and the maps
// their values. Not safe for concurrent use; build with New.
type Scanner struct {
	cfg  Config
	die  geom.Clip
	ev   *train.Evaluator
	pool *parallel.Pool

	blockPx, blockNM int
	n, k             int // window side in blocks, coefficients per block
	nbx, nby         int // die block grid
	wnx, wny         int // window grid
	tileBlocks       int

	grid    *fused.Grid // block cache (its input plane) and shared conv maps
	probs   []float64   // [wny][wnx] last heat map
	scanned bool

	workers []*workerState
}

// New builds a scanner for the die with the given trained network. The
// die frame must divide evenly into DCT blocks and hold at least one
// window.
func New(cfg Config, net *nn.Network, die geom.Clip) (*Scanner, error) {
	if cfg.WindowNM <= 0 {
		return nil, fmt.Errorf("scan: window side must be positive, got %d", cfg.WindowNM)
	}
	blockPx, err := cfg.Feature.BlockPx(cfg.WindowNM)
	if err != nil {
		return nil, err
	}
	blockNM := blockPx * cfg.Feature.ResNM
	if die.Frame.Empty() {
		return nil, fmt.Errorf("scan: empty die frame %v", die.Frame)
	}
	if die.Frame.W()%blockNM != 0 || die.Frame.H()%blockNM != 0 {
		return nil, fmt.Errorf("scan: die %dx%d nm not divisible into %d nm blocks", die.Frame.W(), die.Frame.H(), blockNM)
	}
	n, k := cfg.Feature.Blocks, cfg.Feature.K
	nbx, nby := die.Frame.W()/blockNM, die.Frame.H()/blockNM
	if nbx < n || nby < n {
		return nil, fmt.Errorf("scan: die of %dx%d blocks smaller than the %d-block window", nbx, nby, n)
	}
	tb := cfg.TileBlocks
	if tb <= 0 {
		tb = 16
	}
	ev, err := train.NewEvaluator(net, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if err := ev.Prepare([]int{k, n, n}); err != nil {
		return nil, err
	}
	grid, err := ev.NewGrid(nbx, nby)
	if err != nil {
		return nil, err
	}
	s := &Scanner{
		cfg: cfg, die: die, ev: ev, pool: parallel.New(cfg.Workers),
		blockPx: blockPx, blockNM: blockNM,
		n: n, k: k, nbx: nbx, nby: nby,
		wnx: nbx - n + 1, wny: nby - n + 1,
		tileBlocks: tb,
		grid:       grid,
		probs:      make([]float64, (nbx-n+1)*(nby-n+1)),
	}
	s.workers = make([]*workerState, s.pool.Size())
	for i := range s.workers {
		enc, err := cfg.Feature.NewBlockEncoder(blockPx)
		if err != nil {
			return nil, err
		}
		s.workers[i] = &workerState{enc: enc}
	}
	return s, nil
}

// Windows returns the window grid dimensions.
func (s *Scanner) Windows() (wnx, wny int) { return s.wnx, s.wny }

// Blocks returns the die block grid dimensions.
func (s *Scanner) Blocks() (nbx, nby int) { return s.nbx, s.nby }

// BlockNM returns the block side — the scan stride — in nanometres.
func (s *Scanner) BlockNM() int { return s.blockNM }

// Die returns the die currently scanned (the edited die after Rescan).
func (s *Scanner) Die() geom.Clip { return s.die }

// WindowRect returns window (wx, wy)'s rectangle in die coordinates.
func (s *Scanner) WindowRect(wx, wy int) geom.Rect {
	x0 := s.die.Frame.X0 + wx*s.blockNM
	y0 := s.die.Frame.Y0 + wy*s.blockNM
	return geom.R(x0, y0, x0+s.cfg.WindowNM, y0+s.cfg.WindowNM)
}

// The pass stage summaries in the process registry.
var (
	extractSum = obs.Default().Stage("scan/extract")
	shareSum   = obs.Default().Stage("scan/share")
	inferSum   = obs.Default().Stage("scan/infer")
	regionsSum = obs.Default().Stage("scan/regions")
)

// Scan runs a cold full scan: every block transformed once, the shared
// conv maps computed over the whole die, every window scored.
func (s *Scanner) Scan() (*Result, error) {
	return s.pass(false, 0, 0, s.nbx, s.nby)
}

// pass re-encodes the block range [bx0,bx1)×[by0,by1) into the cache,
// updates the shared conv maps over it and rescores every window that
// gathers one of those blocks, under one trace: "scan" for a cold pass
// over the whole die (where the window range below is the full window
// grid), "rescan" when dirty marks the range as an edit's invalidated
// blocks.
func (s *Scanner) pass(dirty bool, bx0, by0, bx1, by1 int) (*Result, error) {
	name := "scan"
	if dirty {
		name = "rescan"
	}
	root := s.cfg.Tracer.Stage(name, nil)
	ex := root.Span().Stage("extract", extractSum)
	tilesX := (bx1 - bx0 + s.tileBlocks - 1) / s.tileBlocks
	tilesY := (by1 - by0 + s.tileBlocks - 1) / s.tileBlocks
	// Per-tile stages live in this closure, not in encodeRegion: the
	// hotpath kernel stays span-free and the spans no-op when dark.
	err := s.pool.For(tilesX*tilesY, func(worker, t int) error {
		tx, ty := t%tilesX, t/tilesX
		tbx0, tby0 := bx0+tx*s.tileBlocks, by0+ty*s.tileBlocks
		tbx1, tby1 := min(tbx0+s.tileBlocks, bx1), min(tby0+s.tileBlocks, by1)
		tile := ex.Span().Stage("tile", nil)
		tsp := tile.Span()
		tsp.SetInt("tx", int64(tx))
		tsp.SetInt("ty", int64(ty))
		tsp.SetInt("blocks", int64((tbx1-tbx0)*(tby1-tby0)))
		return tile.Done(s.encodeRegion(worker, tbx0, tby0, tbx1, tby1))
	})
	if ex.Done(err) != nil {
		return nil, s.fail(root, err)
	}
	sh := root.Span().Stage("share", shareSum)
	s.grid.Update(bx0, by0, bx1, by1)
	sh.End()

	// Affected windows: window (wx, wy) gathers blocks [wx, wx+n)×[wy,
	// wy+n), so it needs re-scoring iff that range meets the block range.
	wx0 := max(0, bx0-s.n+1)
	wy0 := max(0, by0-s.n+1)
	wx1 := min(s.wnx, bx1)
	wy1 := min(s.wny, by1)
	in := root.Span().Stage("infer", inferSum)
	err = s.pool.For(wy1-wy0, func(worker, j int) error {
		row := in.Span().Stage("row", nil)
		row.Span().SetInt("wy", int64(wy0+j))
		row.Span().SetInt("windows", int64(wx1-wx0))
		return row.Done(s.scoreRow(worker, wy0+j, wx0, wx1))
	})
	if in.Done(err) != nil {
		return nil, s.fail(root, err)
	}
	s.scanned = true

	blocks := (bx1 - bx0) * (by1 - by0)
	windows := (wx1 - wx0) * (wy1 - wy0)
	st := Stats{
		BlockDCTs:    blocks,
		Windows:      windows,
		BlockGathers: int64(windows) * int64(s.n*s.n),
	}
	if dirty {
		st.DirtyBlocks = blocks
	}
	return s.finish(st, root), nil
}

// fail closes a pass trace on an error path and passes the error through.
func (s *Scanner) fail(root trace.Stage, err error) error {
	if tr := root.Trace(); tr != nil {
		tr.SetError(err.Error())
	}
	root.Abort()
	return err
}

// encodeRegion rasterizes the block range [bx0,bx1)×[by0,by1) as the
// distinct rows of the worker's tile, and encodes every block, read in
// place from the stored rows with the tile's row marks, into its cache
// cell, coefficient i at channel i of the Grid's input plane. Workers own
// disjoint block ranges, so cell writes never overlap; pixel values are
// independent of the region bounds (area-accurate rasterization is
// per-pixel local, and a window draws the pixels a full-die raster would
// hold), so the cached values are independent of tiling and worker count.
//
//hsd:hotpath
func (s *Scanner) encodeRegion(worker, bx0, by0, bx1, by1 int) error {
	ws := s.workers[worker]
	b, rows := s.blockPx, &ws.rows
	if err := rows.RasterizeWindow(s.die, s.cfg.Feature.ResNM, bx0*b, by0*b, (bx1-bx0)*b, (by1-by0)*b); err != nil {
		return err
	}
	for by := by0; by < by1; by++ {
		y := (by - by0) * b
		pix, rep := rows.Pix[rows.Stored(y)*rows.W:], rows.Rep[y:y+b]
		for bx := bx0; bx < bx1; bx++ {
			cell, stride := s.grid.Cell(bx, by)
			ws.enc.EncodeStrided(cell, stride, pix[(bx-bx0)*b:], rows.W, rep)
		}
	}
	return nil
}

// scoreRow scores windows (wx0..wx1) of window row wy off the Grid on one
// worker's engine, tensor.TileRows windows per engine call, writing into
// the row's probability slots.
//
//hsd:hotpath
func (s *Scanner) scoreRow(worker, wy, wx0, wx1 int) error {
	slot := wy*s.wnx + wx0
	return s.ev.PredictGridOn(worker, s.grid, wx0, wy, s.probs[slot:slot+wx1-wx0])
}

// finish derives the thresholded heat map and region proposals from the
// current probability grid, publishes pass metrics, and ends the pass's
// root stage, filing its trace when tracing is lit.
func (s *Scanner) finish(st Stats, root trace.Stage) *Result {
	res := &Result{
		WindowsX: s.wnx, WindowsY: s.wny,
		Probs: append([]float64(nil), s.probs...),
		Hot:   make([]bool, len(s.probs)),
	}
	for i, p := range s.probs {
		res.Hot[i] = train.Decide(p, s.cfg.Shift)
	}
	rg := root.Span().Stage("regions", regionsSum)
	res.Regions = mergeRegions(res.Hot, res.Probs, s.wnx, s.wny, s)
	rg.End()

	demand := st.BlockGathers + int64(st.BlockDCTs)
	if demand > 0 {
		st.CacheHitRate = float64(st.BlockGathers) / float64(demand)
	}
	res.Stats = st
	reg := obs.Default()
	reg.Counter("hsd_scan_block_dcts_total").Add(int64(st.BlockDCTs))
	reg.Counter("hsd_scan_block_gathers_total").Add(st.BlockGathers)
	reg.Counter("hsd_scan_windows_total").Add(int64(st.Windows))
	reg.Counter("hsd_scan_dirty_blocks_total").Add(int64(st.DirtyBlocks))
	reg.Gauge("hsd_scan_block_cache_hit_rate", 4).Set(st.CacheHitRate)
	sp := root.Span()
	sp.SetInt("block_dcts", int64(st.BlockDCTs))
	sp.SetInt("block_gathers", st.BlockGathers)
	sp.SetInt("windows", int64(st.Windows))
	sp.SetInt("dirty_blocks", int64(st.DirtyBlocks))
	sp.SetInt("regions", int64(len(res.Regions)))
	sp.SetFloat("cache_hit_rate", st.CacheHitRate)
	root.End()
	return res
}
