package lint

import (
	"go/ast"
	"strings"
)

// Timing enforces the observability clock policy from DESIGN.md: outside
// internal/obs, production code must not read the wall clock directly.
// All timing flows through obs.Stopwatch. A pipeline stage is timed by a
// trace.Stage, whose one stopwatch reading feeds both the stage summary
// and its trace span; the few timers that are not stages (worker-pool
// wake and busy times, run clocks) read a Stopwatch directly. This keeps
// every clock read on the instrumentation side of the determinism
// boundary — a raw time.Now() invites feeding elapsed time back into
// computation, and scattered ad-hoc timers bypass the metrics registry
// entirely.
//
// internal/obs itself (suffix-matched, so fixtures can model it) is the
// one place allowed to call time.Now: the Stopwatch wraps it. The trace
// package is not exempt; its stages start obs stopwatches too. _test.go
// files are skipped, and a genuinely exceptional site — a deadline
// computation for net.Conn, say — can carry `//hsd:allow timing` with a
// reason naming why the read cannot go through an obs timer.
var Timing = &Analyzer{
	Name: "timing",
	Doc:  "flags raw time.Now calls outside internal/obs; timing flows through obs stopwatches",
	Run:  runTiming,
}

func runTiming(pass *Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(pass.Info, call, "time", "Now") {
				pass.Reportf(call.Pos(), "raw time.Now outside internal/obs; use obs.NewStopwatch / a stage summary, or waive with //hsd:allow timing naming why this clock read cannot go through an obs timer")
			}
			return true
		})
	}
	return nil
}
