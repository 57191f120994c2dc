package fused

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// TestImplicitIm2ColMatchesTensor pins a conv plan's addressing against
// tensor.Im2ColInto: for every coefficient row p and output position
// (oy, ox), base[off[p] + oy·vw + ox] must be the explicit im2col matrix
// element, and every kernel read, width columns from each off[p], must
// stay inside the planned region. Stride-1 geometries read the
// zero-bordered plane padInput fills; strided ones the staged matrix.
func TestImplicitIm2ColMatchesTensor(t *testing.T) {
	cases := []struct {
		c, h, w, k, stride, pad int
	}{
		{1, 1, 1, 1, 1, 0},
		{1, 3, 3, 3, 1, 1},
		{2, 5, 7, 3, 1, 1},
		{3, 12, 12, 3, 1, 1},
		{4, 6, 6, 5, 1, 2},
		{2, 4, 4, 3, 1, 3}, // pad wider than the kernel overhang
		{1, 3, 9, 3, 1, 0},
		{32, 12, 12, 3, 1, 1}, // Table-1 conv1-1 input geometry
		{16, 6, 6, 3, 1, 1},   // Table-1 conv2-1 input geometry
		{3, 7, 9, 3, 2, 0},
		{8, 9, 9, 3, 2, 1},
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		oh := tensor.ConvOutputSize(tc.h, tc.k, tc.stride, tc.pad)
		ow := tensor.ConvOutputSize(tc.w, tc.k, tc.stride, tc.pad)
		if oh <= 0 || ow <= 0 {
			t.Fatalf("bad case %+v", tc)
		}
		src := randInput(rng, tc.c, tc.h, tc.w)
		kk, n := tc.c*tc.k*tc.k, oh*ow
		want := tensor.New(kk, n)
		if err := tensor.Im2ColInto(want, src, tc.k, tc.k, tc.stride, tc.pad); err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		o := op{inC: tc.c, inH: tc.h, inW: tc.w, k: tc.k, stride: tc.stride, pad: tc.pad, oh: oh, ow: ow}
		o.base = make([]float64, planConv(&o))
		if tc.stride == 1 {
			padInput(&o, src.Data())
		} else {
			copy(o.base, want.Data())
		}
		if o.width%4 != 0 || (oh-1)*o.vw+ow > o.width {
			t.Fatalf("case %+v: width %d does not cover %d rows of stride %d", tc, o.width, oh, o.vw)
		}
		for p, base := range o.off {
			if base+o.width > len(o.base) {
				t.Fatalf("case %+v: row %d reads [%d, %d) past the %d-element region", tc, p, base, base+o.width, len(o.base))
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					got := o.base[base+oy*o.vw+ox]
					w := want.Data()[p*n+oy*ow+ox]
					if math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("case %+v: row %d at (%d, %d) = %g, want %g", tc, p, oy, ox, got, w)
					}
				}
			}
		}
	}
}

// TestTable1ArenaPlan pins the paper net's arena: one 4-row kernel tile
// (168 virtual columns for a 12×12 output read from a 14-wide plane), a
// dedicated zero-bordered plane per conv — each inC·Hp·Wp long plus the 2
// slots the last coefficient row's rounded-up reads run past it — the four
// conv ops' outputs, the dense tail's outputs four samples wide, its
// transposed four-sample input (fc1's 288 inputs) and Forward's
// one-sample output. No explicit im2col region is planned.
func TestTable1ArenaPlan(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	tile := tensor.TileRows * 168
	planes := (32*14*14 + 2) + (16*14*14 + 2) + (16*8*8 + 2) + (32*8*8 + 2)
	outs := 16*12*12 + 16*6*6 + 32*6*6 + 32*3*3 + tensor.TileRows*(250+2)
	stage := tensor.TileRows * 288
	if got, want := eng.ArenaLen(), tile+planes+outs+stage+2; got != want {
		t.Fatalf("arena holds %d float64, want %d (tile %d + planes %d + outputs %d + staging %d + 2)",
			got, want, tile, planes, outs, stage)
	}
}

// TestGenericKernelParity runs the parity suites through every tile body
// the host has besides the one it runs (the pure-Go body, and the AVX2 one
// on an AVX-512 host), which it would otherwise never execute: suite S on
// body B is subtest S/B.
func TestGenericKernelParity(t *testing.T) {
	if len(tensor.Kernels()) == 1 {
		t.Skip("the parity tests already run the only tile body on this host")
	}
	for _, suite := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"Table1Stages", TestParityTable1Stages},
		{"PaperNet", TestParityPaperNet},
		{"OddGeometries", TestParityOddGeometries},
		{"SparseWeights", TestParitySparseWeights},
		{"ForwardBatch", TestForwardBatchParity},
		{"ForwardGrid", TestForwardGridParity},
		{"GridUpdate", TestGridUpdateIncremental},
	} {
		t.Run(suite.name, func(t *testing.T) {
			for _, name := range tensor.Kernels() {
				if name != tensor.TileKernel() {
					tensor.WithKernel(name, func() { t.Run(name, suite.f) })
				}
			}
		})
	}
}
