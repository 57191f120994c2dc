package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotlint enforces the hot-loop contract transitively. A function marked
// //hsd:hotpath is a hot-path root — the evaluator's PredictOn and
// PredictBatchOn and the scan row scorer (which reach the fused engine),
// the tensor matmul/matvec kernels, the parallel worker bodies, the serve
// flush loop, the MGD per-sample step — and everything statically
// reachable from a root (see callgraph.go) must stay free of:
//
//   - mutex/atomic operations and channel sends/receives/selects
//     (scheduler-dependent ordering breaks bit-identical replay),
//   - ranging over a map (iteration order is nondeterministic),
//   - fmt, reflect, and sort calls (allocation + dynamic dispatch),
//   - append without capacity evidence (per-call slice churn; a variadic
//     append([]T(nil), src...) clone is exact-size and exempt), and
//   - interface-dispatched or func-value calls (defeat devirtualization
//     and blind the static analysis).
//
// Two package policies keep the contract honest rather than noisy:
// internal/obs and internal/obs/trace are never traversed (the
// observability layer locks by design and sits off the result path — the
// same exemption the timing analyzer grants it; the trace recorder keeps
// the hot path clean by a different contract, the nil-tracer zero-alloc
// benchmarks), and internal/parallel is traversed and checked but
// exempt from the synchronization and dynamic-call checks (it *is* the
// sanctioned concurrency substrate; its locks and channels are what the
// rest of the tree is banned from hand-rolling).
//
// Cold failure paths are exempt from the fmt and dispatch checks: a call
// inside a panic argument or inside an error-construction call
// (fmt.Errorf, errors.New) runs only when the hot loop is already
// aborting (`if bad { return nil, fmt.Errorf(...) }` guards stay legal),
// and reachability does not follow such edges. The synchronization,
// map-range, sort, and append checks get no such exemption — those are
// breaches even on a failure path.
//
// Anything else is waived case by case with `//hsd:allow hotlint <why>`;
// the justification string is mandatory and machine-checked. A waiver
// silences the finding on its line but the walk still continues past it —
// to declare an entire call edge off the hot path (a lazy once-per-reload
// compile, a once-per-evaluation resync), mark the call `//hsd:cold <why>`
// instead and the reachability walk will not follow it.
var Hotlint = &Analyzer{
	Name:       "hotlint",
	Doc:        "walks the call graph from //hsd:hotpath roots and flags transitive hot-loop contract breaches",
	RunProgram: runHotlint,
}

// hotlintSkipPkg names packages the reachability walk never enters.
func hotlintSkipPkg(path string) bool {
	return strings.HasSuffix(path, "internal/obs") ||
		strings.HasSuffix(path, "internal/obs/trace")
}

// hotlintRelaxedPkg names packages exempt from the synchronization and
// dynamic-call checks (suffix-matched so fixtures can model them).
func hotlintRelaxedPkg(path string) bool {
	return strings.HasSuffix(path, "internal/parallel")
}

// hotlintExternalOfInterest names the standard-library packages whose
// calls hotlint polices (also used to filter the -callgraph dump).
func hotlintExternalOfInterest(path string) bool {
	switch path {
	case "fmt", "reflect", "sort", "sync", "sync/atomic":
		return true
	}
	return false
}

func runHotlint(pp *ProgramPass) error {
	prog := pp.Prog
	barriers := hotlintBarriers(prog, pp.Waivers)
	reached := prog.Reachable(hotlintSkipPkg, func(from *FuncNode, site *CallSite) bool {
		pos := prog.Fset.Position(site.Call.Pos())
		ws := barriers[fileLine{pos.Filename, pos.Line}]
		for _, w := range ws {
			w.Used = true
		}
		return len(ws) > 0
	})
	for _, n := range prog.nodeList {
		if root := reached[n]; root != nil {
			checkHotNode(pp, n, root)
		}
	}
	return nil
}

// fileLine addresses one source line.
type fileLine struct {
	file string
	line int
}

// hotlintBarriers indexes the //hsd:cold directives by the lines they
// govern. A cold directive on a call site is a traversal barrier: the
// edge is declared cold by a human, with the mandatory justification, and
// the walk does not follow it (the canonical case: the serving path's
// lazy once-per-reload engine compile).
func hotlintBarriers(prog *Program, waivers []*Waiver) map[fileLine][]*Waiver {
	out := make(map[fileLine][]*Waiver)
	for _, w := range waivers {
		if w.Analyzer != ColdDirective {
			continue
		}
		out[fileLine{w.Pos.Filename, w.Pos.Line}] = append(out[fileLine{w.Pos.Filename, w.Pos.Line}], w)
		out[fileLine{w.Pos.Filename, w.Pos.Line + 1}] = append(out[fileLine{w.Pos.Filename, w.Pos.Line + 1}], w)
	}
	return out
}

func checkHotNode(pp *ProgramPass, n *FuncNode, root *FuncNode) {
	info := n.Pkg.Info
	relaxed := hotlintRelaxedPkg(n.Pkg.Path)
	sites := make(map[*ast.CallExpr]*CallSite, len(n.Calls))
	for _, s := range n.Calls {
		sites[s.Call] = s
	}
	evidence := appendEvidence(info, n.Decl)

	walkStack(n.Decl.Body, func(node ast.Node, stack []ast.Node) bool {
		switch node := node.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pp.Reportf(node.Pos(), "range over a map on hot path (via root %s); iteration order is nondeterministic — iterate a sorted key slice", root.Name())
				}
			}
		case *ast.SendStmt:
			if !relaxed {
				pp.Reportf(node.Pos(), "channel send on hot path (via root %s); hot loops must be synchronization-free", root.Name())
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !relaxed {
				pp.Reportf(node.Pos(), "channel receive on hot path (via root %s); hot loops must be synchronization-free", root.Name())
			}
		case *ast.SelectStmt:
			if !relaxed {
				pp.Reportf(node.Pos(), "select on hot path (via root %s); hot loops must be synchronization-free", root.Name())
			}
		case *ast.CallExpr:
			checkHotCall(pp, n, root, node, sites, evidence, stack, relaxed)
		}
		return true
	})
}

func checkHotCall(pp *ProgramPass, n *FuncNode, root *FuncNode, call *ast.CallExpr, sites map[*ast.CallExpr]*CallSite, evidence map[types.Object]bool, stack []ast.Node, relaxed bool) {
	info := n.Pkg.Info
	site := sites[call]
	if site == nil {
		// Builtin or conversion: only append and close are of interest.
		if isBuiltin(info, call, "append") && len(call.Args) > 0 {
			if !appendHasCapacity(info, call, evidence, stack) {
				pp.Reportf(call.Pos(), "append without capacity evidence on hot path (via root %s); pre-size with a 3-arg make, reuse a [:0] buffer, or grow behind a cap guard", root.Name())
			}
		}
		if isBuiltin(info, call, "close") && !relaxed {
			pp.Reportf(call.Pos(), "channel close on hot path (via root %s); hot loops must be synchronization-free", root.Name())
		}
		return
	}
	switch {
	case site.Dynamic:
		if !relaxed && !site.Cold {
			pp.Reportf(call.Pos(), "call through a func value on hot path (via root %s); the target is invisible to static analysis — devirtualize or waive with justification", root.Name())
		}
	case site.Interface:
		if !site.Cold {
			fn := funcOf(info, call)
			name := "method"
			if fn != nil {
				name = fn.FullName()
			}
			pp.Reportf(call.Pos(), "interface-dispatched call to %s on hot path (via root %s) defeats devirtualization; call the concrete type or waive with justification", name, root.Name())
		}
	case site.Ext != nil:
		pkg := site.Ext.Pkg()
		if pkg == nil {
			return
		}
		switch pkg.Path() {
		case "fmt":
			if !site.Cold {
				pp.Reportf(call.Pos(), "fmt.%s on hot path (via root %s); formatting allocates and reflects — move it off the hot loop or behind an error/panic cold path", site.Ext.Name(), root.Name())
			}
		case "reflect":
			pp.Reportf(call.Pos(), "reflect.%s on hot path (via root %s); reflection does not belong in a hot loop", site.Ext.Name(), root.Name())
		case "sort":
			pp.Reportf(call.Pos(), "sort.%s on hot path (via root %s); comparator dispatch and allocation do not belong in a hot loop", site.Ext.Name(), root.Name())
		case "sync", "sync/atomic":
			if !relaxed {
				pp.Reportf(call.Pos(), "%s on hot path (via root %s); hot loops must be lock-free — synchronization lives in internal/parallel", site.Ext.FullName(), root.Name())
			}
		}
	}
}

// appendHasCapacity reports whether an append call carries evidence that
// it will not grow per call: the destination is a slice expression
// (buf[:0] reuse), a struct- or receiver-owned field (amortized growth
// across calls), a local the function provably sized (see
// appendEvidence), or the call sits behind a cap guard.
func appendHasCapacity(info *types.Info, call *ast.CallExpr, evidence map[types.Object]bool, stack []ast.Node) bool {
	if underCapGuard(info, stack) {
		return true
	}
	// A variadic append to a nil conversion — append([]T(nil), src...) —
	// is the idiomatic exact-size clone: the runtime allocates once at
	// len(src). That is not growth churn, so it needs no other evidence.
	if call.Ellipsis.IsValid() && isNilSliceConv(info, call.Args[0]) {
		return true
	}
	return evidencedExpr(info, call.Args[0], evidence)
}

// isNilSliceConv reports whether e is a conversion of the predeclared nil
// to a slice type, e.g. []int(nil).
func isNilSliceConv(info *types.Info, e ast.Expr) bool {
	conv, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(conv.Args) != 1 {
		return false
	}
	if tv, ok := info.Types[conv.Fun]; !ok || !tv.IsType() {
		return false
	}
	if _, ok := info.TypeOf(conv).Underlying().(*types.Slice); !ok {
		return false
	}
	tv, ok := info.Types[ast.Unparen(conv.Args[0])]
	return ok && tv.IsNil()
}

// evidencedExpr reports whether e denotes capacity-evidenced storage.
func evidencedExpr(info *types.Info, e ast.Expr, evidence map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.SelectorExpr:
		// A field append (b.buf = append(b.buf, x)) amortizes growth
		// across calls — the receiver-owned-buffer idiom buflint demands.
		return true
	case *ast.CallExpr:
		if isBuiltin(info, e, "make") {
			return len(e.Args) == 3
		}
		if isBuiltin(info, e, "append") && len(e.Args) > 0 {
			return evidencedExpr(info, e.Args[0], evidence)
		}
		return false
	case *ast.Ident:
		return evidence[info.ObjectOf(e)]
	}
	return false
}

// appendEvidence scans one declaration for locals whose every growth
// chain starts from evidenced storage: any assignment of a 3-arg make, a
// slice expression, or an append rooted in an already-evidenced value
// marks the target object. The fixpoint handles `xs = append(xs, v)`
// self-growth once an initial `xs := b.buf[:0]` is seen.
func appendEvidence(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	type binding struct {
		obj types.Object
		rhs ast.Expr
	}
	var bindings []binding
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			bindings = append(bindings, binding{obj, rhs})
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	evidence := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, b := range bindings {
			if !evidence[b.obj] && evidencedExpr(info, b.rhs, evidence) {
				evidence[b.obj] = true
				changed = true
			}
		}
	}
	return evidence
}
