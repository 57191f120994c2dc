package fused

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// fillGrid writes die values [C][nby][nbx] of blocks [x0, x1)×[y0, y1)
// into g's input plane.
func fillGrid(g *Grid, die []float64, x0, y0, x1, y1 int) {
	for by := y0; by < y1; by++ {
		for bx := x0; bx < x1; bx++ {
			cell, stride := g.Cell(bx, by)
			for i := 0; i < g.c; i++ {
				cell[i*stride] = die[(i*g.nby+by)*g.nbx+bx]
			}
		}
	}
}

// randGrid builds eng's Grid over an nbx×nby-block die of seeded random
// values, a quarter of them signed zeros and subnormals, runs a full
// Update and returns the grid with the die values as [C][nby][nbx].
func randGrid(t testing.TB, eng *Engine, nbx, nby int, rng *rand.Rand) (*Grid, []float64) {
	t.Helper()
	g, err := NewGrid(eng, nbx, nby)
	if err != nil {
		t.Fatal(err)
	}
	die := specialInput(rng, false, eng.inShape[0], nby, nbx).Data()
	fillGrid(g, die, 0, 0, nbx, nby)
	g.Update(0, 0, nbx, nby)
	return g, die
}

// windowTensor assembles window (wx, wy) of g's die values as an input
// tensor, the way a per-clip extractor would lay it out.
func windowTensor(g *Grid, die []float64, wx, wy int) *tensor.Tensor {
	x := tensor.New(g.c, g.h, g.w)
	for c := 0; c < g.c; c++ {
		for y := 0; y < g.h; y++ {
			for i := 0; i < g.w; i++ {
				x.Data()[(c*g.h+y)*g.w+i] = die[(c*g.nby+wy+y)*g.nbx+wx+i]
			}
		}
	}
	return x
}

// gridNets are the nets the grid path is pinned on, with their shared
// depth: the paper net and the scan tests' four-map net (depth 2), a
// mostly-zero pooled conv and a 5×5 pooled conv (depth 1), a strided
// first conv (depth 0), three unpooled same convs of pads 1, 2, 1 (depth
// 3), and every (C, H, W) case of oddGeometryNets and batchNets.
func gridNets(t *testing.T) []struct {
	testNet
	depth int
} {
	t.Helper()
	scanNet, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 32, SpatialSize: 12, Conv1Maps: 4, Conv2Maps: 4, FC1: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	conv := func(name string, inC, outC, k, stride, pad int) *nn.Conv2D {
		c, err := nn.NewConv2D(name, inC, outC, k, stride, pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fc, err := nn.NewDense("fc", 4*11*10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := []struct {
		testNet
		depth int
	}{
		{testNet{"scan-four-map", scanNet, []int{32, 12, 12}}, 2},
		{testNet{"three-same-convs", nn.NewNetwork(
			conv("c1", 3, 6, 3, 1, 1), nn.NewReLU("r1"),
			conv("c2", 6, 5, 5, 1, 2), nn.NewReLU("r2"),
			conv("c3", 5, 4, 3, 1, 1), nn.NewReLU("r3"),
			fc,
		), []int{3, 11, 10}}, 3},
	}
	depths := map[string]int{
		"stride2-pad0-odd-input": 0, "k5-pad2": 1, "pool-odd-extent": 1,
		"standalone-relu-and-pool": 1, "remainder-rows": 0, "dense-on-rank3-input": 0,
		"stacked-convs-mixed-strides": 1, "papernet": 2, "mostly-zero": 1, "conv-only": 1,
	}
	for _, c := range append(oddGeometryNets(t), batchNets(t)...) {
		if len(c.inShape) == 3 {
			out = append(out, struct {
				testNet
				depth int
			}{c, depths[c.name]})
		}
	}
	return out
}

// TestForwardGridParity pins ForwardGrid against ForwardBatch on the
// assembled window tensors and against the layered net.Forward, by
// Float64bits, on every window of a grid of random values laced with
// signed zeros and subnormals. Each row is scored whole (a window count
// that is not a multiple of four) and from its second window in a call of
// three.
func TestForwardGridParity(t *testing.T) {
	for ni, c := range gridNets(t) {
		eng, err := Compile(c.net, c.inShape)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		if eng.depth != c.depth {
			t.Fatalf("%s: shared depth %d, want %d", c.name, eng.depth, c.depth)
		}
		rng := rand.New(rand.NewSource(int64(500 + ni)))
		h, w := c.inShape[1], c.inShape[2]
		g, die := randGrid(t, eng, w+5, h+2, rng)
		n, wnx := eng.OutLen(), 6
		for wy := 0; wy <= 2; wy++ {
			xs := make([]*tensor.Tensor, wnx)
			for i := range xs {
				xs[i] = windowTensor(g, die, i, wy)
			}
			want := make([]float64, wnx*n)
			if err := eng.ForwardBatch(want, xs); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, wnx*n)
			if err := eng.ForwardGrid(got, g, 0, wy); err != nil {
				t.Fatalf("%s: ForwardGrid: %v", c.name, err)
			}
			for i, x := range xs {
				label := fmt.Sprintf("%s window (%d, %d)", c.name, i, wy)
				assertBitEqual(t, got[i*n:(i+1)*n], want[i*n:(i+1)*n], label+" vs ForwardBatch")
				ref, err := c.net.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				assertBitEqual(t, got[i*n:(i+1)*n], ref.Data(), label+" vs layered")
			}
			part := make([]float64, 3*n)
			if err := eng.ForwardGrid(part, g, 1, wy); err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, part, want[n:4*n], fmt.Sprintf("%s row %d from window 1", c.name, wy))
		}
	}
}

// TestGridUpdateIncremental: after a block range changes, Update over
// that range leaves every map bit for bit what a full Update of the
// changed die computes, for ranges inside the die, on its edges and
// corners, and past it (clamped).
func TestGridUpdateIncremental(t *testing.T) {
	for ni, c := range gridNets(t) {
		eng, err := Compile(c.net, c.inShape)
		if err != nil {
			t.Fatal(err)
		}
		if eng.depth == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(600 + ni)))
		nbx, nby := c.inShape[2]+9, c.inShape[1]+7
		g, die := randGrid(t, eng, nbx, nby, rng)
		for ri, r := range [][4]int{
			{3, 2, 8, 6}, {0, 0, 2, 3}, {nbx - 4, nby - 1, nbx, nby}, {5, 0, 6, nby}, {-2, 4, 3, nby + 5},
		} {
			x0, y0, x1, y1 := max(r[0], 0), max(r[1], 0), min(r[2], nbx), min(r[3], nby)
			for ch := 0; ch < g.c; ch++ {
				for by := y0; by < y1; by++ {
					for bx := x0; bx < x1; bx++ {
						die[(ch*nby+by)*nbx+bx] = rng.NormFloat64()
					}
				}
			}
			fillGrid(g, die, x0, y0, x1, y1)
			g.Update(r[0], r[1], r[2], r[3])
			ref, err := NewGrid(eng, nbx, nby)
			if err != nil {
				t.Fatal(err)
			}
			fillGrid(ref, die, 0, 0, nbx, nby)
			ref.Update(0, 0, nbx, nby)
			for s := range g.maps {
				assertBitEqual(t, g.maps[s].out, ref.maps[s].out, fmt.Sprintf("%s edit %d map %d", c.name, ri, s))
			}
		}
	}
}

// TestPlanRingCovers is a property test over window sides, pads and
// cumulative pads: every ring position — closer than cum to an edge — has
// exactly one scatter entry, which names its own virtual column, and no
// interior position has one; spans are ascending, disjoint and a whole
// number of column steps wide.
func TestPlanRingCovers(t *testing.T) {
	for oh := 1; oh <= 13; oh++ {
		for ow := 1; ow <= 13; ow++ {
			for pad := 0; pad <= 3; pad++ {
				for cum := pad; cum <= pad+4; cum++ {
					vw := ow + 2*pad
					spans, from, pos := planRing(oh, ow, vw, cum)
					label := fmt.Sprintf("oh %d ow %d pad %d cum %d", oh, ow, pad, cum)
					seen := make([]int, oh*ow)
					prevEnd := -1
					for _, sp := range spans {
						if sp.width <= 0 || sp.width%colStep != 0 || sp.start < prevEnd || sp.lo >= sp.hi {
							t.Fatalf("%s: bad span %+v after column %d", label, sp, prevEnd)
						}
						prevEnd = sp.start + sp.width
						for k := sp.lo; k < sp.hi; k++ {
							y, x := pos[k]/ow, pos[k]%ow
							if from[k] < 0 || from[k] >= sp.width || sp.start+from[k] != y*vw+x {
								t.Fatalf("%s: entry %d (%d, %d) at column %d of span %+v", label, k, y, x, from[k], sp)
							}
							seen[pos[k]]++
						}
					}
					for p, n := range seen {
						y, x := p/ow, p%ow
						ring := y < cum || y >= oh-cum || x < cum || x >= ow-cum
						if want := map[bool]int{true: 1, false: 0}[ring]; n != want {
							t.Fatalf("%s: position (%d, %d) has %d entries, want %d", label, y, x, n, want)
						}
					}
				}
			}
		}
	}
}

// TestTable1RingSpans pins the paper net's ring tiles: conv1-1
// computes 17 and conv1-2 28 of their 42 four-column groups per window.
func TestTable1RingSpans(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range []int{17, 28} {
		groups := 0
		for _, sp := range eng.rings[s].spans {
			groups += sp.width / colStep
		}
		if groups != want || eng.ops[s].width/colStep != 42 {
			t.Fatalf("conv %d: %d of %d groups, want %d of 42", s, groups, eng.ops[s].width/colStep, want)
		}
	}
}

// TestForwardGridErrors: ForwardGrid rejects a grid of another network or
// input shape, an output that is not whole windows and windows outside
// the grid, before it computes anything.
func TestForwardGridErrors(t *testing.T) {
	nets := batchNets(t)
	eng, err := Compile(nets[0].net, nets[0].inShape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	g, _ := randGrid(t, eng, 14, 13, rng) // 3×2 windows
	n := eng.OutLen()
	other, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	otherEng, err := Compile(other, nets[0].inShape)
	if err != nil {
		t.Fatal(err)
	}
	mostlyZero, err := Compile(nets[1].net, nets[1].inShape)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eng    *Engine
		out    int
		wx, wy int
		want   string
	}{
		{otherEng, n, 0, 0, "grid built for another network"},
		{mostlyZero, n, 0, 0, "grid built for another network"},
		{eng, n + 1, 0, 0, "not a multiple of 2"},
		{eng, 4 * n, 0, 0, "windows 0..3 of row 0 outside the 3x2-window grid"},
		{eng, n, 0, 2, "outside"},
		{eng, n, -1, 0, "outside"},
	} {
		out := make([]float64, tc.out)
		if err := tc.eng.ForwardGrid(out, g, tc.wx, tc.wy); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ForwardGrid(%d values, %d, %d): err %v, want %q", tc.out, tc.wx, tc.wy, err, tc.want)
		}
	}
	if err := eng.ForwardGrid(nil, g, 9, 9); err != nil {
		t.Fatalf("no windows: %v", err)
	}
	if _, err := NewGrid(eng, 11, 20); err == nil {
		t.Fatal("grid narrower than a window accepted")
	}
	dense, err := Compile(oddGeometryNets(t)[5].net, []int{24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(dense, 30, 30); err == nil {
		t.Fatal("grid for a rank-1 input accepted")
	}
}

// TestGridCells: writing every block through Cell fills exactly the
// input plane's interior; its zero border and the slack past it stay zero.
func TestGridCells(t *testing.T) {
	eng, err := Compile(batchNets(t)[0].net, []int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(eng, 13, 12)
	if err != nil {
		t.Fatal(err)
	}
	for by := 0; by < g.nby; by++ {
		for bx := 0; bx < g.nbx; bx++ {
			cell, stride := g.Cell(bx, by)
			for i := 0; i < g.c; i++ {
				cell[i*stride]++
			}
		}
	}
	for idx, v := range g.in {
		c, y, x := idx/g.pcs, idx%g.pcs/g.pw-g.b, idx%g.pw-g.b
		want := 0.0
		if c < g.c && y >= 0 && y < g.nby && x >= 0 && x < g.nbx {
			want = 1
		}
		if v != want {
			t.Fatalf("input plane slot %d (channel %d, block %d, %d) holds %v, want %v", idx, c, x, y, v, want)
		}
	}
}

// benchGrid is the paper net on a 72×72-block die of normal random values
// (subnormals would time the FPU's slow path), the scan_eco die's size,
// with a full Update run.
func benchGrid(b *testing.B) (*Engine, *Grid, []float64) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGrid(eng, 72, 72)
	if err != nil {
		b.Fatal(err)
	}
	die := randInput(rand.New(rand.NewSource(2)), 32, 72, 72).Data()
	fillGrid(g, die, 0, 0, 72, 72)
	g.Update(0, 0, 72, 72)
	return eng, g, die
}

// BenchmarkForwardGrid scores four interior windows of the die per call;
// BenchmarkFusedPaperNetBatch scores the same windows pre-assembled.
func BenchmarkForwardGrid(b *testing.B) {
	eng, g, _ := benchGrid(b)
	out := make([]float64, tensor.TileRows*eng.OutLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ForwardGrid(out, g, 30, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridUpdate times a full-die Update and one over a 5×6-block
// edit.
func BenchmarkGridUpdate(b *testing.B) {
	_, g, _ := benchGrid(b)
	for _, bc := range []struct {
		name           string
		x0, y0, x1, y1 int
	}{{"die", 0, 0, 72, 72}, {"edit", 30, 30, 35, 36}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Update(bc.x0, bc.y0, bc.x1, bc.y1)
			}
		})
	}
}
