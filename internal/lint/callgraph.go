package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file builds the whole-program view behind the interprocedural
// analyzers (hotlint, alloclint): a static call graph over go/types,
// resolved conservatively. Static calls and method calls on concrete
// receivers resolve to exactly one target. An interface-dispatched call
// resolves to every concrete method in the module whose receiver type
// implements the interface — an over-approximation, which is the safe
// direction for a reachability analysis. A call through a func value
// (closure variable, callback parameter, method value) cannot be resolved
// at all and is recorded as dynamic so hotlint can flag it at the site.
//
// Function literals are not separate graph nodes: a closure's body is
// walked as part of its enclosing declaration, so calls made inside a
// closure count as calls made by the declaring function. This
// over-approximates (the closure may only run off the hot path) but keeps
// the conservative direction. The one blind spot is a method value or
// closure *escaping* to a caller that invokes it elsewhere — the invoking
// site then sees a dynamic call, which hotlint flags, so the gap is
// reported rather than silent.

// annotation directives recognized on function declarations.
const (
	hotpathDirective = "//hsd:hotpath"
	noallocDirective = "//hsd:noalloc"
)

// FuncNode is one declared function or method in the module, with its
// resolved outgoing calls.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Hotpath and Noalloc record //hsd:hotpath and //hsd:noalloc
	// directives in the declaration's doc comment.
	Hotpath bool
	Noalloc bool

	// Calls lists every call expression in the body (closures included),
	// in source order.
	Calls []*CallSite
}

// Name returns the node's fully qualified name, e.g.
// "(hotspot/internal/nn/fused.*Engine).Forward".
func (n *FuncNode) Name() string { return n.Fn.FullName() }

// CallSite is one call expression inside a FuncNode body with its resolved
// targets.
type CallSite struct {
	Call *ast.CallExpr

	// Callees are the module-internal targets: one node for a static
	// call, every implementing method for an interface dispatch, empty
	// for calls leaving the module and for dynamic calls.
	Callees []*FuncNode

	// Ext is the callee for calls that resolve statically to a function
	// outside the module (standard library); nil otherwise.
	Ext *types.Func

	// Interface marks an interface-dispatched call (Callees holds the
	// conservative implementer set).
	Interface bool

	// Dynamic marks a call through a func value, unresolvable statically.
	Dynamic bool

	// Cold marks a call that executes only while aborting: inside a panic
	// argument, or inside a return statement of a function whose results
	// include error. Reachability does not follow cold edges — the callee
	// runs once as the hot loop dies, not per iteration.
	Cold bool
}

// Program is the whole-module view handed to program-level analyzers.
type Program struct {
	// Dir is the directory of the first loaded package — a module-internal
	// working directory for build-system commands an analyzer runs.
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package

	// Nodes indexes every declared function with a body, keyed by
	// fully-qualified name ((*types.Func).FullName of the generic origin).
	// The key is a string, not the *types.Func itself, because each
	// package is type-checked separately: a cross-package call site
	// references the importer's object for the callee, which is a
	// different pointer from the object created when the callee's own
	// package was checked from source. The printed name is the identity
	// that survives the universe boundary.
	Nodes map[string]*FuncNode

	// nodeList is Nodes in source-position order, for deterministic
	// traversal and dumps.
	nodeList []*FuncNode
}

// BuildProgram constructs the call graph over the loaded packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Nodes: make(map[string]*FuncNode),
	}
	if len(pkgs) > 0 {
		prog.Dir = pkgs[0].Dir
		prog.Fset = pkgs[0].Fset
	}
	prog.Pkgs = pkgs

	// Pass 1: index every function declaration that has a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if strings.HasPrefix(c.Text, hotpathDirective) {
							node.Hotpath = true
						}
						if strings.HasPrefix(c.Text, noallocDirective) {
							node.Noalloc = true
						}
					}
				}
				prog.Nodes[origin(fn).FullName()] = node
				prog.nodeList = append(prog.nodeList, node)
			}
		}
	}
	sort.Slice(prog.nodeList, func(i, j int) bool {
		return posLess(prog.Fset, prog.nodeList[i].Decl.Pos(), prog.nodeList[j].Decl.Pos())
	})

	// Concrete named types in the module, for interface resolution.
	var concrete []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			concrete = append(concrete, t)
		}
	}

	// Pass 2: resolve every call expression.
	for _, node := range prog.nodeList {
		n := node
		walkStack(n.Decl.Body, func(an ast.Node, stack []ast.Node) bool {
			call, ok := an.(*ast.CallExpr)
			if !ok {
				return true
			}
			if site := prog.resolveCall(n.Pkg, call, concrete); site != nil {
				site.Cold = coldPos(n.Pkg.Info, call, stack)
				n.Calls = append(n.Calls, site)
			}
			return true
		})
	}
	return prog
}

// coldPos reports whether a call executes only while failing: inside a
// panic argument, or inside (or being) an error-construction call —
// fmt.Errorf, errors.New, errors.Join. Building an error value IS failure
// handling, so the `return nil, fmt.Errorf(..., x.Shape())` guard idiom
// stays legal without exempting ordinary tail calls like
// `return process(x)`, which are the main path, not a cold one.
func coldPos(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if isErrCtor(info, call) {
		return true
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if s, ok := stack[i].(*ast.CallExpr); ok {
			if isBuiltin(info, s, "panic") || isErrCtor(info, s) {
				return true
			}
		}
	}
	return false
}

// isErrCtor reports whether call constructs an error value.
func isErrCtor(info *types.Info, call *ast.CallExpr) bool {
	return isPkgFunc(info, call, "fmt", "Errorf") ||
		isPkgFunc(info, call, "errors", "New") ||
		isPkgFunc(info, call, "errors", "Join")
}

// resolveCall classifies one call expression. It returns nil for
// conversions and builtins, which are not calls in the graph sense.
func (prog *Program) resolveCall(pkg *Package, call *ast.CallExpr, concrete []types.Type) *CallSite {
	fun := ast.Unparen(call.Fun)
	// Type conversions: T(x).
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	// Builtins: append, len, … and the qualified unsafe.Slice, unsafe.Add, ….
	id, _ := fun.(*ast.Ident)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
		return nil
	}
	fn := funcOf(pkg.Info, call)
	if fn == nil {
		// Not a named function or method: a func value (closure variable,
		// callback parameter, returned function, method value).
		return &CallSite{Call: call, Dynamic: true}
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return &CallSite{Call: call, Dynamic: true}
		}
		return &CallSite{Call: call, Interface: true, Callees: prog.implementers(iface, fn, concrete)}
	}
	if target, ok := prog.Nodes[origin(fn).FullName()]; ok {
		return &CallSite{Call: call, Callees: []*FuncNode{target}}
	}
	return &CallSite{Call: call, Ext: fn}
}

// implementers returns the module methods that an interface call on m may
// dispatch to: for every concrete named type in the module implementing
// iface, the method with m's name.
func (prog *Program) implementers(iface *types.Interface, m *types.Func, concrete []types.Type) []*FuncNode {
	var out []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, t := range concrete {
		impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, m.Pkg(), m.Name())
		mf, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node, ok := prog.Nodes[origin(mf).FullName()]; ok && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return posLess(prog.Fset, out[i].Decl.Pos(), out[j].Decl.Pos())
	})
	return out
}

// origin maps an instantiated generic function or method back to its
// declaration, which is what the node index is keyed by.
func origin(fn *types.Func) *types.Func { return fn.Origin() }

// Roots returns the //hsd:hotpath-annotated nodes in source order.
func (prog *Program) Roots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range prog.nodeList {
		if n.Hotpath {
			roots = append(roots, n)
		}
	}
	return roots
}

// NoallocFuncs returns the //hsd:noalloc-annotated nodes in source order.
func (prog *Program) NoallocFuncs() []*FuncNode {
	var out []*FuncNode
	for _, n := range prog.nodeList {
		if n.Noalloc {
			out = append(out, n)
		}
	}
	return out
}

// Reachable walks the graph from the hotpath roots and returns every
// reachable node mapped to the root that first reaches it (breadth-first
// from roots in source order, so the attribution is deterministic).
// Traversal does not descend into packages for which skip returns true,
// does not follow cold edges (see CallSite.Cold), and skips any edge for
// which cut returns true (hotlint uses cut for waived call edges).
func (prog *Program) Reachable(skip func(pkgPath string) bool, cut func(from *FuncNode, site *CallSite) bool) map[*FuncNode]*FuncNode {
	reached := make(map[*FuncNode]*FuncNode)
	var queue []*FuncNode
	for _, r := range prog.Roots() {
		if reached[r] == nil {
			reached[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			if site.Cold {
				continue
			}
			if cut != nil && len(site.Callees) > 0 && cut(n, site) {
				continue
			}
			for _, callee := range site.Callees {
				if reached[callee] != nil {
					continue
				}
				if skip != nil && skip(callee.Pkg.Path) {
					continue
				}
				reached[callee] = reached[n]
				queue = append(queue, callee)
			}
		}
	}
	return reached
}

// posLess orders two positions by (filename, offset).
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// WriteGraph dumps the call graph as text: the annotated roots, then one
// line per call edge. The hsd-vet -callgraph flag exposes this as a debug
// surface (CI uploads it when the check gate fails).
func (prog *Program) WriteGraph(w io.Writer) error {
	reached := prog.Reachable(hotlintSkipPkg, nil)
	for _, r := range prog.Roots() {
		if _, err := fmt.Fprintf(w, "root %s\n", r.Name()); err != nil {
			return err
		}
	}
	for _, n := range prog.nodeList {
		mark := ""
		if reached[n] != nil {
			mark = " [hot]"
		}
		for _, site := range n.Calls {
			pos := prog.Fset.Position(site.Call.Pos())
			cold := ""
			if site.Cold {
				cold = " [cold]"
			}
			switch {
			case site.Dynamic:
				if _, err := fmt.Fprintf(w, "%s -> DYNAMIC (func value) at %s:%d%s\n", n.Name(), pos.Filename, pos.Line, mark+cold); err != nil {
					return err
				}
			case site.Interface:
				for _, c := range site.Callees {
					if _, err := fmt.Fprintf(w, "%s -> %s [interface] at %s:%d%s\n", n.Name(), c.Name(), pos.Filename, pos.Line, mark+cold); err != nil {
						return err
					}
				}
			case site.Ext != nil:
				// External (standard library) edges are elided except the
				// ones hotlint cares about, to keep the dump readable.
				if p := site.Ext.Pkg(); p != nil && hotlintExternalOfInterest(p.Path()) {
					if _, err := fmt.Fprintf(w, "%s -> %s [external] at %s:%d%s\n", n.Name(), site.Ext.FullName(), pos.Filename, pos.Line, mark+cold); err != nil {
						return err
					}
				}
			default:
				for _, c := range site.Callees {
					if _, err := fmt.Fprintf(w, "%s -> %s at %s:%d%s\n", n.Name(), c.Name(), pos.Filename, pos.Line, mark+cold); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
