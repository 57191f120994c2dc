package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
	"hotspot/internal/parallel"
	"hotspot/internal/serve"
)

// Input streams: every generated input draws from its own stream keyed by
// (seed, stream, index), so changing one input's count never shifts
// another's values.
const (
	streamClip = iota + 1
	streamMix
	streamEdit
	streamLabeled
)

func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9e3779b9 + int64(stream)<<40 + int64(i)))
}

// genClip draws clip i of a stream from one of the four layout styles.
func genClip(seed int64, stream, i int) geom.Clip {
	rng := rngFor(seed, stream, i)
	styles := layout.AllStyles()
	return layout.Generate(styles[rng.Intn(len(styles))], rng)
}

// coreRect is the scored core of every generated clip (all four styles
// share the 1200 nm core inside a 200 nm halo).
func coreRect() geom.Rect { return layout.StyleICCAD().CoreRect() }

// clipRequest is a clip's wire form: its frame and rectangles, scored on
// the server's default centred core.
func clipRequest(c geom.Clip) serve.ClipRequest {
	rects := make([]serve.RectJSON, len(c.Rects))
	for i, r := range c.Rects {
		rects[i] = serve.RectJSON{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
	}
	f := c.Frame
	return serve.ClipRequest{Frame: &serve.RectJSON{X0: f.X0, Y0: f.Y0, X1: f.X1, Y1: f.Y1}, Rects: rects}
}

func encodeOne(c geom.Clip) ([]byte, error) { return json.Marshal(clipRequest(c)) }

func encodeBatch(cs []geom.Clip) ([]byte, error) {
	br := serve.BatchRequest{Clips: make([]serve.ClipRequest, len(cs))}
	for i, c := range cs {
		br.Clips[i] = clipRequest(c)
	}
	return json.Marshal(br)
}

// genEdits draws the scan_eco edit cycle on a die of nbx×nby blocks of
// blockNM. Edit sides step evenly from one block to maxNM, so every seed
// has the same mix of sizes; the seed picks their order, their block-
// aligned positions and the one wire each redraws. Positions keep every
// edit's re-scored windows inside the die where the die allows it, so the
// window count of an edit depends on its size alone.
func genEdits(seed int64, n, nbx, nby, blockNM, window, maxNM int) []layout.Edit {
	order := rngFor(seed, streamEdit, -1).Perm(n)
	edits := make([]layout.Edit, n)
	for i := range edits {
		side := blockNM
		if n > 1 {
			side += (maxNM - blockNM) * order[i] / (n - 1)
		}
		nb := (side + blockNM - 1) / blockNM
		rng := rngFor(seed, streamEdit, i)
		x0 := blockNM * place(rng, nbx, nb, window)
		y0 := blockNM * place(rng, nby, nb, window)
		region := geom.R(x0, y0, x0+side, y0+side)
		width := min(side, 32+8*rng.Intn(5))
		off := 8 * rng.Intn((side-width)/8+1)
		wire := geom.R(x0+off, y0, x0+off+width, y0+side) // vertical
		if rng.Intn(2) == 0 {
			wire = geom.R(x0, y0+off, x0+side, y0+off+width)
		}
		edits[i] = layout.Edit{Region: region, Rects: []geom.Rect{wire}}
	}
	return edits
}

// place picks the first block of an nb-block edit on an axis of nBlocks,
// keeping window-1 blocks of margin on both sides when the axis allows.
func place(rng *rand.Rand, nBlocks, nb, window int) int {
	margin := min(window-1, (nBlocks-nb)/2)
	return margin + rng.Intn(nBlocks-nb-2*margin+1)
}

// labeledSet draws n clips and labels each with the lithography oracle
// (the style's own process-window analysis), fanned over the default
// workers. The set must hold both classes for balanced sampling.
func labeledSet(seed int64, n int) ([]geom.Clip, []bool, error) {
	clips := make([]geom.Clip, n)
	styleOf := make([]layout.Style, n)
	for i := range clips {
		rng := rngFor(seed, streamLabeled, i)
		styles := layout.AllStyles()
		styleOf[i] = styles[rng.Intn(len(styles))]
		clips[i] = layout.Generate(styleOf[i], rng)
	}
	labelers := map[string]*layout.Labeler{}
	for _, s := range layout.AllStyles() {
		l, err := layout.NewLabeler(s, litho.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		labelers[s.Name] = l
	}
	hot, err := parallel.Map(parallel.New(0), n, func(_, i int) (bool, error) {
		rep, err := labelers[styleOf[i].Name].Label(clips[i])
		return rep.Hotspot, err
	})
	if err != nil {
		return nil, nil, err
	}
	nHot := 0
	for _, h := range hot {
		if h {
			nHot++
		}
	}
	if nHot == 0 || nHot == n {
		return nil, nil, fmt.Errorf("labeled set of %d clips has %d hotspots; both classes are needed", n, nHot)
	}
	return clips, hot, nil
}
