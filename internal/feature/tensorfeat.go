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

// BlockPx returns the encoder's pixel block side.
func (e *BlockEncoder) BlockPx() int { return e.blockPx }

// K returns the coefficient count written per block.
func (e *BlockEncoder) K() int { return e.k }

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
	e.EncodeStrided(dst, 1, block, b)
	return nil
}

// EncodeStrided is EncodeInto for a block read in place and coefficients
// scattered in place: row y of the block is pix[y·stride : y·stride+blockPx],
// and coefficient i is written to dst[i·dstStride]. The per-clip extractor
// passes the core image's row stride and the tensor's channel plane, so no
// block is copied in or out; the scan engine passes its tile's stride and
// a cache slot. Short slices panic.
//
//hsd:noalloc
func (e *BlockEncoder) EncodeStrided(dst []float64, dstStride int, pix []float64, stride int) {
	e.dct.Forward(e.coef, e.tmp, pix, stride)
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
	coreIm, err := ExtractCoreImage(clip, core, cfg)
	if err != nil {
		return nil, err
	}
	return extractFromImage(coreIm, b, cfg)
}

// ExtractCoreImage rasterizes a clip's core window — the exact pixel grid
// ExtractTensor feeds into the blocked DCT — into a new image. It is split
// out so online callers (the inference server) can rasterize once, hash
// the pixels for clip deduplication, and hand the same image to
// ExtractTensorFromImage without re-rasterizing.
func ExtractCoreImage(clip geom.Clip, core geom.Rect, cfg TensorConfig) (*raster.Image, error) {
	return RasterizeCore(nil, clip, core, cfg)
}

// RasterizeCore is ExtractCoreImage drawing into dst's storage when it
// has room (raster.Reuse), so a caller that recycles core images pays no
// allocation. Only the core window of the clip's frame is rasterized; its
// pixels equal a full-frame raster.Rasterize cropped to the core, bit for
// bit.
func RasterizeCore(dst *raster.Image, clip geom.Clip, core geom.Rect, cfg TensorConfig) (*raster.Image, error) {
	if cfg.ResNM <= 0 {
		return nil, fmt.Errorf("feature: ResNM must be positive, got %d", cfg.ResNM)
	}
	// Window offsets are relative to the frame's lower-left corner, the
	// origin of the frame's pixel grid.
	x0 := (core.X0 - clip.Frame.X0) / cfg.ResNM
	y0 := (core.Y0 - clip.Frame.Y0) / cfg.ResNM
	side := core.W() / cfg.ResNM
	st := trace.Time(rasterSum)
	im, err := raster.RasterizeWindow(dst, clip, cfg.ResNM, x0, y0, side, side)
	if st.Done(err) != nil {
		return nil, err
	}
	return im, nil
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

// extractFromImage runs block-DCT encoding over an already-rasterized core
// through the shared BlockEncoder — the same kernel the scan engine's
// block cache runs, which is what makes scan-vs-per-clip bit parity
// structural rather than coincidental. Each block is read in place from
// the image and its coefficients land straight in the tensor's channel
// planes. The block loop is timed once per clip as the feature/dct stage.
func extractFromImage(im *raster.Image, b int, cfg TensorConfig) (*tensor.Tensor, error) {
	n := cfg.Blocks
	enc, err := cfg.NewBlockEncoder(b)
	if err != nil {
		return nil, err
	}
	out := tensor.New(cfg.K, n, n)
	data := out.Data()
	st := trace.Time(dctSum)
	for by := 0; by < n; by++ {
		for bx := 0; bx < n; bx++ {
			enc.EncodeStrided(data[by*n+bx:], n*n, im.Pix[by*b*im.W+bx*b:], im.W)
		}
	}
	st.End()
	return out, nil
}

// ExtractTensorFromImage computes the feature tensor directly from a
// rasterized core image (side pixels must divide evenly into Blocks).
func ExtractTensorFromImage(im *raster.Image, cfg TensorConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if im.W != im.H {
		return nil, fmt.Errorf("feature: image %dx%d must be square", im.W, im.H)
	}
	b := im.W / cfg.Blocks
	if b*cfg.Blocks != im.W {
		return nil, fmt.Errorf("feature: image side %d not divisible into %d blocks", im.W, cfg.Blocks)
	}
	if cfg.K > b*b {
		return nil, fmt.Errorf("feature: K=%d exceeds block capacity %d", cfg.K, b*b)
	}
	return extractFromImage(im, b, cfg)
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
