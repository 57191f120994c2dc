package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// Buflint guards the allocation-churn wins of the data-parallel rework:
// the nn/tensor/train forward and backward paths run once per sample per
// iteration, and a `make([]float64, ...)` there resurrects the per-step
// garbage the layer buffer reuse removed (train step allocations fell
// 169KB -> 6KB; see DESIGN.md). Hot-path slices live on the receiver and
// are grown, not reallocated.
//
// Flagged: make of a float slice inside a Forward/Backward method (any
// case) in a package named nn, tensor, train, or fused — unless the make
// is behind a capacity-growth guard, i.e. an enclosing if whose condition
// calls cap(...), which is exactly the amortized grow-once idiom
// (`if cap(buf) < n { buf = make([]float64, n) }`). Two further packages
// carry their own specs: serve's batcher bodies (run/fill/drain), where
// any per-batch slice make churns at request rate and the scratch/slot
// buffers exist precisely to be reused, and dct's *Into kernels, whose
// contract is writing into caller storage — a make of a float slice
// inside one belies the name.
var Buflint = &Analyzer{
	Name: "buflint",
	Doc:  "flags per-call slice allocation in the nn/tensor/train/fused, serve batcher, and dct Into hot paths",
	Run:  runBuflint,
}

// bufSpec describes one hot package's rule: which functions are hot, and
// whether every slice element type is covered or floats only.
type bufSpec struct {
	hot      func(name string) bool
	anySlice bool
}

func isHotFunc(name string) bool {
	switch name {
	case "Forward", "Backward", "forward", "backward":
		return true
	}
	return false
}

// bufSpecs keys hot packages by base name. nn/tensor/train carry the
// per-sample training path; fused is the compiled inference engine, whose
// whole point is a zero-allocation Forward: all buffers are planned into
// the compile-time arena, so any make in its Forward is a regression.
var bufSpecs = map[string]bufSpec{
	"nn":     {hot: isHotFunc},
	"tensor": {hot: isHotFunc},
	"train":  {hot: isHotFunc},
	"fused":  {hot: isHotFunc},
	"serve": {
		hot: func(name string) bool {
			switch name {
			case "run", "fill", "drain":
				return true
			}
			return false
		},
		anySlice: true,
	},
	"dct": {hot: func(name string) bool { return strings.HasSuffix(name, "Into") }},
	// scan's per-tile and per-window bodies run once per die block / window
	// over millions of windows on real designs; every buffer (block pixels,
	// tensor scratch, the plane cache) is allocated at Scanner construction
	// and any per-item make of any slice type is churn at scan rate.
	"scan": {
		hot: func(name string) bool {
			switch name {
			case "encodeRegion", "scoreRow", "assembleWindow":
				return true
			}
			return false
		},
		anySlice: true,
	},
	// feature's EncodeStrided is the shared per-block DCT kernel both the
	// per-clip extractor and the scan cache drive, and EncodeInto its
	// validating entry; their scratch lives on the BlockEncoder. SqDist is
	// the active selector's pairwise-distance kernel, called once per
	// (candidate, center) pair per k-center step — it takes raw slices
	// precisely so it allocates nothing.
	"feature": {hot: func(name string) bool {
		switch name {
		case "EncodeInto", "EncodeStrided", "SqDist":
			return true
		}
		return false
	}},
	// active's updateMinDist is the k-center inner loop, run once per
	// (candidate, center) pair per selection round as a parallel worker
	// body; candidate scratch lives on the selector and is reused across
	// rounds, so any per-call make of any slice type is churn at
	// selection rate.
	"active": {
		hot:      func(name string) bool { return name == "updateMinDist" },
		anySlice: true,
	},
	// trace's recorder runs once per finished trace on the serving path;
	// its rings are sized at construction and the slow buckets are
	// allocated once per endpoint (newBucket), so a per-record make of any
	// slice type is churn at request rate.
	"trace": {
		hot: func(name string) bool {
			switch name {
			case "record", "keepSlow":
				return true
			}
			return false
		},
		anySlice: true,
	},
}

func isSliceMake(pass *Pass, call *ast.CallExpr, anyElem bool) bool {
	if !isBuiltin(pass.Info, call, "make") || len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	s, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return anyElem || isFloat(s.Elem())
}

// underCapGuard reports whether some enclosing if statement's condition
// calls the cap builtin — the amortized buffer-growth idiom.
func underCapGuard(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && isBuiltin(info, call, "cap") {
				guarded = true
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

func runBuflint(pass *Pass) error {
	base := path.Base(pass.Pkg.Path())
	spec, ok := bufSpecs[base]
	if !ok {
		return nil
	}
	kind := "float slice"
	if spec.anySlice {
		kind = "slice"
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !spec.hot(fd.Name.Name) {
				continue
			}
			walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSliceMake(pass, call, spec.anySlice) {
					return true
				}
				if underCapGuard(pass.Info, stack) {
					return true
				}
				pass.Reportf(call.Pos(), "per-call make of a %s in hot path %s.%s; reuse a receiver buffer and grow it behind a cap guard", kind, base, fd.Name.Name)
				return true
			})
		}
	}
	return nil
}
