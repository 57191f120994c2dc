package lint

import (
	"go/ast"
	"strings"
)

// Goroutinelint enforces the concurrency contract from DESIGN.md: all
// fan-out goes through internal/parallel's bounded worker pool, whose
// index-ordered slot reduction is what keeps parallel results bit-identical
// to serial ones. A raw `go` statement anywhere else is unbounded (it
// ignores the -workers budget) and its completion order is scheduler
// -dependent, so any float reduction over it reintroduces run-to-run drift.
//
// Only the internal/parallel package itself (suffix-matched, so test
// fixtures can model it) and _test.go files may start goroutines directly.
//
// Serving-layer policy: the online serving packages (import path suffix
// internal/serve, plus cmd/hsd-serve) legitimately need a handful of
// long-lived service goroutines that are not batch fan-out — the
// micro-batcher's flush loop, a shutdown watcher — on top of net/http's
// own (library-internal, invisible to this analyzer) handler goroutines.
// Those sites are still findings, reported with a message stating the
// waiver contract: each must carry a `//hsd:allow goroutinelint` directive
// whose reason names the shutdown path that joins the goroutine, so every
// service loop in the tree documents how it terminates. Batch fan-out in
// serving code still belongs on internal/parallel and gets no waiver.
var Goroutinelint = &Analyzer{
	Name: "goroutinelint",
	Doc:  "flags raw go statements outside internal/parallel's bounded pool",
	Run:  runGoroutinelint,
}

// servingPkg reports whether path is part of the online serving layer,
// where the waiver policy for service loops applies.
func servingPkg(path string) bool {
	return strings.HasSuffix(path, "internal/serve") || strings.HasSuffix(path, "cmd/hsd-serve")
}

func runGoroutinelint(pass *Pass) error {
	path := pass.Pkg.Path()
	if strings.HasSuffix(path, "internal/parallel") {
		return nil
	}
	serving := servingPkg(path)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if serving {
					pass.Reportf(g.Pos(), "raw goroutine in the serving layer; a service loop must carry //hsd:allow goroutinelint naming the shutdown path that joins it (batch fan-out still belongs on internal/parallel)")
				} else {
					pass.Reportf(g.Pos(), "raw goroutine outside internal/parallel; use parallel.Map or Pool.For so fan-out stays bounded and reduction stays index-ordered")
				}
			}
			return true
		})
	}
	return nil
}
