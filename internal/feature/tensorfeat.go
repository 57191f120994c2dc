// Package feature implements the layout feature extractors: the paper's
// feature tensor (§3: block DCT + zig-zag truncation, spatial arrangement
// preserved), and the two baseline features it compares against — the
// density grid of SPIE'15 [4] and the concentric-circle sampling (CCS) of
// ICCAD'16 [5] — plus the mutual-information feature selection the ICCAD'16
// flow uses.
package feature

import (
	"fmt"

	"hotspot/internal/dct"
	"hotspot/internal/geom"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
)

// The extraction stage summaries in the process registry, one observation
// per clip each: rasterization, and the block loop (DCT, zig-zag
// truncation and the scatter into the tensor).
var (
	rasterSum = obs.Default().Stage("feature/raster")
	dctSum    = obs.Default().Stage("feature/dct")
)

// TensorConfig parameterizes feature tensor extraction.
type TensorConfig struct {
	// Blocks is n: the clip is divided into n×n sub-regions (the paper
	// uses 12).
	Blocks int
	// K is the number of zig-zag DCT coefficients kept per block (the
	// feature tensor is n×n×k; the reference implementation uses 32).
	K int
	// ResNM is the rasterization resolution in nanometres per pixel. The
	// paper rasterizes at 1 nm/px; 4 nm/px keeps >99% of low-frequency
	// content at 1/16 the cost and is the default everywhere here.
	ResNM int
	// Normalize divides every coefficient by the block pixel size so the
	// DC channel lies in [0, 1] (block mean density) regardless of
	// resolution. Training uses normalized tensors; reconstruction demos
	// can disable it.
	Normalize bool
}

// DefaultTensorConfig mirrors the paper: 12×12 blocks, 32 coefficients.
func DefaultTensorConfig() TensorConfig {
	return TensorConfig{Blocks: 12, K: 32, ResNM: 4, Normalize: true}
}

// Validate checks the configuration.
func (c TensorConfig) Validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("feature: Blocks must be positive, got %d", c.Blocks)
	}
	if c.K <= 0 {
		return fmt.Errorf("feature: K must be positive, got %d", c.K)
	}
	if c.ResNM <= 0 {
		return fmt.Errorf("feature: ResNM must be positive, got %d", c.ResNM)
	}
	return nil
}

// blockSize returns the per-block pixel size for a core of the given
// nanometre side, or an error when the geometry does not divide evenly.
func (c TensorConfig) blockSize(coreNM int) (int, error) {
	corePx := coreNM / c.ResNM
	if corePx*c.ResNM != coreNM {
		return 0, fmt.Errorf("feature: core %d nm not divisible by resolution %d nm", coreNM, c.ResNM)
	}
	b := corePx / c.Blocks
	if b*c.Blocks != corePx {
		return 0, fmt.Errorf("feature: core %d px not divisible into %d blocks", corePx, c.Blocks)
	}
	if c.K > b*b {
		return 0, fmt.Errorf("feature: K=%d exceeds block capacity %d", c.K, b*b)
	}
	return b, nil
}

// ValidateCore checks that a core window of the given nanometre side
// divides evenly under the configuration (resolution, blocks, coefficient
// budget), so callers holding user-supplied geometry — the inference
// server validates request clips up front — can reject bad cores with the
// precise reason before paying for rasterization.
func (c TensorConfig) ValidateCore(coreNM int) error {
	_, err := c.blockSize(coreNM)
	return err
}

// BlockPx returns the per-block pixel side for a core window of the given
// nanometre side, validating divisibility. The scan engine uses it to
// quantize its window stride to the DCT block grid, so one cached block
// transform serves every overlapping window that covers the block.
func (c TensorConfig) BlockPx(coreNM int) (int, error) {
	return c.blockSize(coreNM)
}

// BlockEncoder transforms one blockPx×blockPx pixel block into its
// zig-zag-truncated, scaled K-vector of DCT coefficients — the per-block
// kernel of ExtractTensor, factored out so the full-layout scan engine's
// shared block cache computes bit-for-bit the same coefficient vectors as
// per-clip extraction (the parity contract is structural: both paths call
// this one encoder). An encoder owns its scratch buffers and is not safe
// for concurrent use; parallel callers keep one per worker.
type BlockEncoder struct {
	blockPx int
	k       int
	scale   float64
	dct     dct.Truncated
	zigzag  []int     // zigzag[i] = row-major index into the corner block
	coef    []float64 // corner×corner truncated-DCT output
	tmp     []float64 // row-transform scratch
}

// NewBlockEncoder builds the encoder for the configuration at the given
// per-block pixel size (TensorConfig.BlockPx of the core side).
func (c TensorConfig) NewBlockEncoder(blockPx int) (*BlockEncoder, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if blockPx <= 0 || c.K > blockPx*blockPx {
		return nil, fmt.Errorf("feature: block size %d incompatible with K=%d", blockPx, c.K)
	}
	corner := dct.CoefficientCorner(blockPx, c.K)
	tr, err := dct.NewTruncated(blockPx, blockPx, corner, corner)
	if err != nil {
		return nil, err
	}
	order := dct.ZigZagOrder(blockPx, blockPx)
	zig := make([]int, c.K)
	for i := 0; i < c.K; i++ {
		u, v := order[i]/blockPx, order[i]%blockPx
		zig[i] = u*corner + v
	}
	scale := 1.0
	if c.Normalize {
		scale = 1 / float64(blockPx)
	}
	return &BlockEncoder{
		blockPx: blockPx,
		k:       c.K,
		scale:   scale,
		dct:     tr,
		zigzag:  zig,
		coef:    make([]float64, corner*corner),
		tmp:     make([]float64, tr.TmpLen()),
	}, nil
}

// EncodeInto writes the block's K scaled zig-zag coefficients into dst.
// block must hold blockPx² row-major pixels and dst at least K values.
func (e *BlockEncoder) EncodeInto(dst, block []float64) error {
	b := e.blockPx
	if len(block) != b*b {
		return fmt.Errorf("feature: block length %d does not match %dx%d", len(block), b, b)
	}
	if len(dst) < e.k {
		return fmt.Errorf("feature: dst length %d below K=%d", len(dst), e.k)
	}
	e.EncodeStrided(dst, 1, block, b, nil)
	return nil
}

// EncodeStrided is EncodeInto for a block read in place and coefficients
// scattered in place: the block's rows are read stride apart from pix, as
// dct.Truncated.Forward reads them, and coefficient i is written to
// dst[i·dstStride]. rep is nil, for rows stored densely, or the marks of
// the blockPx rows the block spans, for rows stored distinct as a
// raster.Rows keeps them; pix then starts at the stored row the block's
// first row resolves to. The per-clip extractor passes a core's stored
// rows and the tensor's channel plane, so no block is copied in or out;
// the scan engine passes its tile's stored rows and a cache slot. Short
// slices panic.
//
//hsd:noalloc
func (e *BlockEncoder) EncodeStrided(dst []float64, dstStride int, pix []float64, stride int, rep []bool) {
	e.dct.Forward(e.coef, e.tmp, pix, stride, rep)
	for i, idx := range e.zigzag {
		dst[i*dstStride] = e.coef[idx] * e.scale
	}
}

// ExtractTensor computes the feature tensor of the core window of a clip:
// the core is rasterized, divided into Blocks×Blocks sub-regions, each
// sub-region is DCT-transformed, zig-zag flattened and truncated to K
// coefficients, and the truncated vectors are reassembled in place. The
// result has shape (K, Blocks, Blocks) — channels-first, ready for the CNN.
//
// core is given in the clip's coordinate frame and must be square and lie
// inside the clip frame; pass the full frame for halo-free clips.
func ExtractTensor(clip geom.Clip, core geom.Rect, cfg TensorConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if core.W() != core.H() || core.Empty() {
		return nil, fmt.Errorf("feature: core %v must be square and non-empty", core)
	}
	if !clip.Frame.ContainsRect(core) {
		return nil, fmt.Errorf("feature: core %v outside clip frame %v", core, clip.Frame)
	}
	b, err := cfg.blockSize(core.W())
	if err != nil {
		return nil, err
	}
	var rows raster.Rows
	if err := RasterizeCore(&rows, clip, core, cfg); err != nil {
		return nil, err
	}
	return extractRows(&rows, b, cfg)
}

// ExtractCoreImage rasterizes a clip's core window — the exact pixel grid
// ExtractTensor feeds into the blocked DCT — into a new dense image. Its
// pixels equal a full-frame raster.Rasterize cropped to the core, bit for
// bit.
func ExtractCoreImage(clip geom.Clip, core geom.Rect, cfg TensorConfig) (*raster.Image, error) {
	x0, y0, side, err := coreWindow(clip, core, cfg)
	if err != nil {
		return nil, err
	}
	st := trace.Time(rasterSum)
	im, err := raster.RasterizeWindow(clip, cfg.ResNM, x0, y0, side, side)
	if st.Done(err) != nil {
		return nil, err
	}
	return im, nil
}

// RasterizeCore draws the core window ExtractCoreImage draws into dst as
// its distinct rows (raster.Rows.RasterizeWindow), keeping dst's storage,
// so a caller that recycles cores allocates nothing once they are warm.
// The inference server rasterizes each request clip this way, hashes the
// rows for clip deduplication and hands the same rows to
// ExtractTensorFromRows.
func RasterizeCore(dst *raster.Rows, clip geom.Clip, core geom.Rect, cfg TensorConfig) error {
	x0, y0, side, err := coreWindow(clip, core, cfg)
	if err != nil {
		return err
	}
	st := trace.Time(rasterSum)
	return st.Done(dst.RasterizeWindow(clip, cfg.ResNM, x0, y0, side, side))
}

// coreWindow returns the core's pixel window in the grid of the clip's
// frame: offsets relative to the frame's lower-left corner, the origin of
// that grid, and the side.
func coreWindow(clip geom.Clip, core geom.Rect, cfg TensorConfig) (x0, y0, side int, err error) {
	if cfg.ResNM <= 0 {
		return 0, 0, 0, fmt.Errorf("feature: ResNM must be positive, got %d", cfg.ResNM)
	}
	return (core.X0 - clip.Frame.X0) / cfg.ResNM, (core.Y0 - clip.Frame.Y0) / cfg.ResNM, core.W() / cfg.ResNM, nil
}

// ExtractTensors extracts the feature tensor of every clip's core window,
// fanning the per-clip rasterization and blocked DCT across workers
// goroutines (0 = parallel.Default()). Results are returned in input order
// and are identical to calling ExtractTensor per clip: each extraction
// depends only on its own clip, so worker count and scheduling cannot
// change the output.
func ExtractTensors(clips []geom.Clip, core geom.Rect, cfg TensorConfig, workers int) ([]*tensor.Tensor, error) {
	return parallel.Map(parallel.New(workers), len(clips), func(_, i int) (*tensor.Tensor, error) {
		return ExtractTensor(clips[i], core, cfg)
	})
}

// extractRows runs block-DCT encoding over a rasterized core's distinct
// rows through the shared BlockEncoder — the same kernel the scan engine's
// block cache runs, which is what makes scan-vs-per-clip bit parity
// structural rather than coincidental. Each block is read in place from
// the stored rows, from the one its first row resolves to, with the marks
// of the rows it spans, so the row pass transforms only distinct rows; its
// coefficients land straight in the tensor's channel planes. The block
// loop is timed once per clip as the feature/dct stage.
func extractRows(rows *raster.Rows, b int, cfg TensorConfig) (*tensor.Tensor, error) {
	n, w := cfg.Blocks, rows.W
	enc, err := cfg.NewBlockEncoder(b)
	if err != nil {
		return nil, err
	}
	out := tensor.New(cfg.K, n, n)
	data := out.Data()
	st := trace.Time(dctSum)
	for by := 0; by < n; by++ {
		pix, rep := rows.Pix[rows.Stored(by*b)*w:], rows.Rep[by*b:by*b+b]
		for bx := 0; bx < n; bx++ {
			enc.EncodeStrided(data[by*n+bx:], n*n, pix[bx*b:], w, rep)
		}
	}
	st.End()
	return out, nil
}

// ExtractTensorFromImage computes the feature tensor directly from a
// rasterized core image (side pixels must divide evenly into Blocks). The
// image is packed into its distinct rows first, as ExtractTensorFromRows
// reads them.
func ExtractTensorFromImage(im *raster.Image, cfg TensorConfig) (*tensor.Tensor, error) {
	b, err := cfg.coreBlock(im.W, im.H)
	if err != nil {
		return nil, err
	}
	var rows raster.Rows
	rows.Pack(im)
	return extractRows(&rows, b, cfg)
}

// ExtractTensorFromRows computes the feature tensor from a rasterized
// core's distinct rows (side pixels must divide evenly into Blocks).
func ExtractTensorFromRows(rows *raster.Rows, cfg TensorConfig) (*tensor.Tensor, error) {
	b, err := cfg.coreBlock(rows.W, rows.H)
	if err != nil {
		return nil, err
	}
	return extractRows(rows, b, cfg)
}

// coreBlock validates a rasterized w×h core against the configuration and
// returns its block side in pixels.
func (c TensorConfig) coreBlock(w, h int) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if w != h {
		return 0, fmt.Errorf("feature: image %dx%d must be square", w, h)
	}
	b := w / c.Blocks
	if b*c.Blocks != w {
		return 0, fmt.Errorf("feature: image side %d not divisible into %d blocks", w, c.Blocks)
	}
	if c.K > b*b {
		return 0, fmt.Errorf("feature: K=%d exceeds block capacity %d", c.K, b*b)
	}
	return b, nil
}

// DecodeTensor inverts ExtractTensor up to the dropped high-frequency
// coefficients: each block's K coefficients are zig-zag unflattened,
// zero-filled and inverse-DCT'd, reassembling the approximate core image.
// blockPx is the per-block pixel size used at encode time; normalized says
// whether the tensor was extracted with TensorConfig.Normalize.
func DecodeTensor(ft *tensor.Tensor, blockPx int, normalized bool) (*raster.Image, error) {
	if ft.Rank() != 3 {
		return nil, fmt.Errorf("feature: tensor rank %d, want 3 (K, n, n)", ft.Rank())
	}
	k, n := ft.Dim(0), ft.Dim(1)
	if ft.Dim(2) != n {
		return nil, fmt.Errorf("feature: tensor shape %v not square in blocks", ft.Shape())
	}
	if blockPx <= 0 || k > blockPx*blockPx {
		return nil, fmt.Errorf("feature: block size %d incompatible with K=%d", blockPx, k)
	}
	side := n * blockPx
	im := raster.NewImage(side, side)
	scan := make([]float64, k)
	unscale := 1.0
	if normalized {
		unscale = float64(blockPx)
	}
	for by := 0; by < n; by++ {
		for bx := 0; bx < n; bx++ {
			for i := 0; i < k; i++ {
				scan[i] = ft.At(i, by, bx) * unscale
			}
			full, err := dct.ZigZagUnflatten(scan, blockPx, blockPx)
			if err != nil {
				return nil, err
			}
			rec, err := dct.Inverse2D(full, blockPx, blockPx)
			if err != nil {
				return nil, err
			}
			for y := 0; y < blockPx; y++ {
				dstRow := (by*blockPx + y) * side
				copy(im.Pix[dstRow+bx*blockPx:dstRow+bx*blockPx+blockPx], rec[y*blockPx:(y+1)*blockPx])
			}
		}
	}
	return im, nil
}
