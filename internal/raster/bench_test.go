package raster

import (
	"math/rand"
	"testing"

	"hotspot/internal/geom"
)

// BenchmarkRasterizeManyEdges draws the most rectangles a serve request
// may carry, 65,536, as one hostile 300-px core at 4 nm/px: slivers 1 nm
// tall, each inside one pixel row, at random rows, so that a band starts
// on nearly every row, and 1 to 64 px wide. A drawer that scanned every
// rectangle for every band would check each sliver about 300 times.
// "rows" draws the core into a warm distinct-row form, as serve does;
// "dense" draws it as a new image.
func BenchmarkRasterizeManyEdges(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	clip := geom.Clip{Frame: geom.R(0, 0, 1200, 1200), Rects: make([]geom.Rect, 65536)}
	for i := range clip.Rects {
		x0, y0 := rng.Intn(1200-256), 4*rng.Intn(300)+1+rng.Intn(2)
		clip.Rects[i] = geom.R(x0, y0, x0+4+rng.Intn(252), y0+1)
	}
	b.Run("rows", func(b *testing.B) {
		var rows Rows
		for i := 0; i < b.N; i++ {
			if err := rows.RasterizeWindow(clip, 4, 0, 0, 300, 300); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RasterizeWindow(clip, 4, 0, 0, 300, 300); err != nil {
				b.Fatal(err)
			}
		}
	})
}
