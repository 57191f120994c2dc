package scan

import (
	"strings"
	"testing"

	"hotspot/internal/layout"
	"hotspot/internal/obs/trace"
)

// TestScanTraceParity: a traced scan and a dark scan of the same die
// produce bit-identical probability grids — tracing observes, never
// perturbs.
func TestScanTraceParity(t *testing.T) {
	net := testNet(t)
	die := testDie(t)
	_, dark := mustScan(t, testConfig(3), net, die)
	lit := testConfig(3)
	lit.Tracer = trace.New(trace.Config{Seed: 9})
	_, traced := mustScan(t, lit, net, die)
	for i := range dark.Probs {
		if traced.Probs[i] != dark.Probs[i] {
			t.Fatalf("window %d: traced %v, dark %v", i, traced.Probs[i], dark.Probs[i])
		}
	}
}

// TestScanTraceTree checks the recorded shape of a scan pass and an
// incremental rescan: extract/share/infer/regions stage spans, in that
// order, per-tile and per-window-row children, and the cache-attribution
// attributes on the root.
func TestScanTraceTree(t *testing.T) {
	net := testNet(t)
	die := testDie(t)
	cfg := testConfig(2)
	cfg.Tracer = trace.New(trace.Config{Seed: 9})
	s, res := mustScan(t, cfg, net, die)

	edit := layout.Edit{Region: s.WindowRect(4, 0)} // nil Rects: clear the window
	if _, err := s.Rescan(edit); err != nil {
		t.Fatal(err)
	}

	byName := map[string]*trace.TraceJSON{}
	snap := cfg.Tracer.Snapshot()
	for i := range snap {
		byName[snap[i].Name] = &snap[i]
	}
	for _, name := range []string{"scan", "rescan"} {
		tr := byName[name]
		if tr == nil {
			t.Fatalf("no %q trace recorded (have %d traces)", name, len(snap))
		}
		stages := map[string]trace.SpanJSON{}
		var order []string
		for _, sp := range tr.Spans {
			stages[sp.Name] = sp
			order = append(order, sp.Name)
		}
		if got := strings.Join(order, ","); got != "extract,share,infer,regions" {
			t.Fatalf("%s trace stages %s, want extract,share,infer,regions", name, got)
		}
		tiles, rows := 0, 0
		for _, sp := range stages["extract"].Children {
			if sp.Name == "tile" {
				tiles++
				if _, ok := sp.Attrs["blocks"]; !ok {
					t.Fatalf("%s tile span missing blocks attr: %+v", name, sp)
				}
			}
		}
		for _, sp := range stages["infer"].Children {
			if sp.Name == "row" {
				rows++
				if _, ok := sp.Attrs["windows"]; !ok {
					t.Fatalf("%s row span missing windows attr: %+v", name, sp)
				}
			}
		}
		if tiles == 0 || rows == 0 {
			t.Fatalf("%s trace: %d tile spans, %d row spans; want both > 0", name, tiles, rows)
		}
		for _, attr := range []string{"block_dcts", "block_gathers", "windows", "cache_hit_rate", "regions"} {
			if _, ok := tr.Attrs[attr]; !ok {
				t.Fatalf("%s trace missing root attr %q: %v", name, attr, tr.Attrs)
			}
		}
	}
	// The cold pass touched every block exactly once; the rescan reports
	// its dirty-block count and re-DCTs only those.
	scanT, rescanT := byName["scan"], byName["rescan"]
	if scanT.Attrs["block_dcts"] != int64(res.Stats.BlockDCTs) {
		t.Fatalf("scan block_dcts = %v, want %d", scanT.Attrs["block_dcts"], res.Stats.BlockDCTs)
	}
	if rescanT.Attrs["dirty_blocks"] == int64(0) {
		t.Fatal("rescan recorded zero dirty blocks")
	}
	if rescanT.Attrs["block_dcts"] != rescanT.Attrs["dirty_blocks"] {
		t.Fatalf("rescan block_dcts %v != dirty_blocks %v",
			rescanT.Attrs["block_dcts"], rescanT.Attrs["dirty_blocks"])
	}
}
