package lint

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Alloclint turns the fused engine's 0 B/op promise from
// benchmark-observed into compiler-verified. A function marked
// //hsd:noalloc — the fused ops and the engine's per-sample and grid
// bodies, im2col, the tensor matmul kernels — must not allocate, and the
// authority on whether
// it does is the compiler's own escape analysis, which sees through the
// AST-level tricks buflint can't (interface boxing, captured variables,
// variable-size makes, escaping composite literals).
//
// For each package containing a //hsd:noalloc function, alloclint reruns
// the compiler with `go build -gcflags='-m -m'` (cheap: the build cache
// replays the diagnostics on unchanged packages) and parses the escape
// stream. Any "escapes to heap" or "moved to heap" fact positioned inside
// a noalloc function's body is a finding. Cold paths are not exempt here
// — if an error-formatting allocation is acceptable, the line carries an
// explicit `//hsd:allow alloclint <why>` waiver so the exception is
// visible in the diff, not implicit in policy.
var Alloclint = &Analyzer{
	Name:       "alloclint",
	Doc:        "verifies //hsd:noalloc functions against the compiler's escape analysis (go build -gcflags='-m -m')",
	RunProgram: runAlloclint,
}

// escapeFact is one allocation the compiler reported.
type escapeFact struct {
	file string // absolute path
	line int
	col  int
	msg  string
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeFacts runs the compiler over one package directory and extracts
// the allocation diagnostics.
func escapeFacts(dir string) ([]escapeFact, error) {
	// -o keeps a main package's binary out of the tree; for non-main
	// packages it harmlessly writes the archive to the null device.
	cmd := exec.Command("go", "build", "-gcflags=-m -m", "-o", os.DevNull, ".")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags='-m -m' in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var facts []escapeFact
	seen := make(map[escapeFact]bool)
	for _, raw := range strings.Split(stderr.String(), "\n") {
		m := escapeLineRE.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		msg := m[4]
		// -m -m emits both a summary line ("x escapes to heap") and a
		// trace form ("x escapes to heap:" followed by indented flow
		// lines); accept either head and let the position dedupe them.
		isEscape := strings.HasSuffix(msg, "escapes to heap") || strings.HasSuffix(msg, "escapes to heap:")
		isMove := strings.HasPrefix(msg, "moved to heap")
		if !isEscape && !isMove {
			continue
		}
		line, err1 := strconv.Atoi(m[2])
		col, err2 := strconv.Atoi(m[3])
		if err1 != nil || err2 != nil {
			continue
		}
		f := escapeFact{
			file: m[1],
			line: line,
			col:  col,
			msg:  strings.TrimSuffix(msg, ":"),
		}
		key := escapeFact{file: f.file, line: f.line, col: f.col}
		if seen[key] {
			continue
		}
		seen[key] = true
		facts = append(facts, f)
	}
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.col < b.col
	})
	return facts, nil
}

func runAlloclint(pp *ProgramPass) error {
	prog := pp.Prog

	// Group the annotated functions by package; one compiler run each.
	byPkg := make(map[*Package][]*FuncNode)
	var pkgs []*Package
	for _, n := range prog.NoallocFuncs() {
		if byPkg[n.Pkg] == nil {
			pkgs = append(pkgs, n.Pkg)
		}
		byPkg[n.Pkg] = append(byPkg[n.Pkg], n)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	for _, pkg := range pkgs {
		facts, err := escapeFacts(pkg.Dir)
		if err != nil {
			return err
		}
		for _, n := range byPkg[pkg] {
			start := prog.Fset.Position(n.Decl.Pos())
			end := prog.Fset.Position(n.Decl.End())
			for _, f := range facts {
				if !factMatchesFile(f.file, start.Filename) {
					continue
				}
				if f.line < start.Line || f.line > end.Line {
					continue
				}
				pp.ReportAt(token.Position{Filename: start.Filename, Line: f.line, Column: f.col},
					"heap allocation in //hsd:noalloc %s: %s", n.Fn.FullName(), f.msg)
			}
		}
	}
	return nil
}

// factMatchesFile reports whether a compiler diagnostic path names the
// loader's absolute filename. The build cache replays diagnostics exactly
// as the original invocation printed them, so the path may be relative to
// any past working directory ("./a.go", "a.go", "internal/dct/dct.go") —
// but the facts only ever come from the one package being built, so a
// path-suffix match is unambiguous.
func factMatchesFile(fact, abs string) bool {
	fact = filepath.Clean(fact)
	if filepath.IsAbs(fact) {
		return fact == abs
	}
	return abs == fact || strings.HasSuffix(abs, "/"+fact)
}
