package litho

import (
	"fmt"

	"hotspot/internal/raster"
)

// DefectKind classifies a printability violation.
type DefectKind int

const (
	// DefectNone means the pattern printed within tolerance.
	DefectNone DefectKind = iota
	// DefectOpen means drawn geometry failed to print (pullback, necking,
	// or a full open) beyond the EPE tolerance.
	DefectOpen
	// DefectBridge means printing extended beyond drawn geometry by more
	// than the bridge tolerance, or fused two distinct drawn shapes.
	DefectBridge
)

// String implements fmt.Stringer.
func (d DefectKind) String() string {
	switch d {
	case DefectNone:
		return "none"
	case DefectOpen:
		return "open"
	case DefectBridge:
		return "bridge"
	default:
		return fmt.Sprintf("DefectKind(%d)", int(d))
	}
}

// CornerResult is the printability verdict at one process corner.
type CornerResult struct {
	Condition Condition
	Defect    DefectKind
	// Violations counts the defective pixels inside the analysis region; a
	// severity indicator for diagnostics.
	Violations int
}

// Report is the full process-window analysis of one mask.
type Report struct {
	Corners []CornerResult
	// Hotspot is true when any corner produced a defect.
	Hotspot bool
	// WindowFraction is the fraction of corners that printed cleanly — a
	// process-window size proxy (1.0 = robust pattern).
	WindowFraction float64
}

// Region is a pixel-space rectangle [X0,X1)×[Y0,Y1) restricting analysis to
// the interior of a clip so that dark-field boundary effects of the finite
// simulation window are not scored.
type Region struct {
	X0, Y0, X1, Y1 int
}

// Analyze runs the full process-window printability analysis of a mask
// raster (at Config.ResNM nm/px), scoring defects only inside region.
//
// The per-corner checks are the standard EPE-style tolerances:
//
//   - open: a drawn (target) pixel farther than the EPE tolerance from any
//     printed pixel — catches pullback, necking breaks and full opens;
//   - bridge: a printed pixel farther than the bridge tolerance from any
//     drawn pixel, or a printed connected component that fuses two distinct
//     drawn shapes (a short), however narrow the fused gap is.
func (s *Simulator) Analyze(mask *raster.Image, region Region) (Report, error) {
	if region.X0 < 0 || region.Y0 < 0 || region.X1 > mask.W || region.Y1 > mask.H ||
		region.X0 >= region.X1 || region.Y0 >= region.Y1 {
		return Report{}, fmt.Errorf("litho: analysis region (%d,%d)-(%d,%d) invalid for %dx%d mask",
			region.X0, region.Y0, region.X1, region.Y1, mask.W, mask.H)
	}

	target := mask.Threshold(0.5)
	epePx := s.cfg.EPEToleranceNM / s.cfg.ResNM
	bridgePx := s.cfg.BridgeToleranceNM / s.cfg.ResNM
	// Printing within bridgePx of drawn geometry is tolerated.
	nearTarget := Dilate(target, bridgePx)
	targetLabels, _ := label4(target)

	// Group corners by defocus: dose only rescales the threshold, so one
	// aerial image serves every dose at the same defocus.
	aerials := make(map[float64]*raster.Image)
	rep := Report{Corners: make([]CornerResult, len(s.cfg.Corners))}
	clean := 0
	for i, cond := range s.cfg.Corners {
		aerial, ok := aerials[cond.Defocus]
		if !ok {
			aerial = s.Aerial(mask, cond.Defocus)
			aerials[cond.Defocus] = aerial
		}
		printed := s.Print(aerial, cond.Dose)
		kind, count := s.scoreDefects(printed, target, nearTarget, targetLabels, region, epePx)
		rep.Corners[i] = CornerResult{Condition: cond, Defect: kind, Violations: count}
		if kind == DefectNone {
			clean++
		} else {
			rep.Hotspot = true
		}
	}
	rep.WindowFraction = float64(clean) / float64(len(s.cfg.Corners))
	return rep, nil
}

func (s *Simulator) scoreDefects(printed, target, nearTarget *raster.Image, targetLabels []int, region Region, epePx int) (DefectKind, int) {
	w := printed.W
	nearPrinted := Dilate(printed, epePx)

	opens, bridges := 0, 0
	for y := region.Y0; y < region.Y1; y++ {
		base := y * w
		for x := region.X0; x < region.X1; x++ {
			i := base + x
			if target.Pix[i] >= 0.5 && nearPrinted.Pix[i] < 0.5 {
				opens++
			} else if printed.Pix[i] >= 0.5 && nearTarget.Pix[i] < 0.5 {
				bridges++
			}
		}
	}

	// Shorts: a printed component that touches two distinct target shapes
	// and intersects the analysis region.
	if bridges == 0 {
		printedLabels, nComp := label4(printed)
		if nComp > 0 {
			first := make([]int, nComp+1) // printed label -> first target label seen (0 = none)
			merged := make([]bool, nComp+1)
			inRegion := make([]bool, nComp+1)
			for y := 0; y < printed.H; y++ {
				base := y * w
				for x := 0; x < w; x++ {
					i := base + x
					pl := printedLabels[i]
					if pl == 0 {
						continue
					}
					if y >= region.Y0 && y < region.Y1 && x >= region.X0 && x < region.X1 {
						inRegion[pl] = true
					}
					tl := targetLabels[i]
					if tl == 0 {
						continue
					}
					switch first[pl] {
					case 0:
						first[pl] = tl
					case tl:
					default:
						merged[pl] = true
					}
				}
			}
			for pl := 1; pl <= nComp; pl++ {
				if merged[pl] && inRegion[pl] {
					bridges++
				}
			}
		}
	}

	switch {
	case opens > 0:
		return DefectOpen, opens + bridges
	case bridges > 0:
		return DefectBridge, bridges
	default:
		return DefectNone, 0
	}
}

// label4 labels 4-connected components of a binary image. Returns a
// per-pixel label array (0 = background, labels start at 1) and the number
// of components.
func label4(im *raster.Image) ([]int, int) {
	labels := make([]int, len(im.Pix))
	next := 0
	var stack []int
	for start, v := range im.Pix {
		if v < 0.5 || labels[start] != 0 {
			continue
		}
		next++
		labels[start] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			y, x := i/im.W, i%im.W
			for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				ny, nx := y+d[0], x+d[1]
				if ny < 0 || ny >= im.H || nx < 0 || nx >= im.W {
					continue
				}
				j := ny*im.W + nx
				if im.Pix[j] >= 0.5 && labels[j] == 0 {
					labels[j] = next
					stack = append(stack, j)
				}
			}
		}
	}
	return labels, next
}
