// Package analysis is the repo's static-invariant suite: four
// project-specific vet-style passes (determinism, noalloc, poolsafe,
// seededrng) over a minimal, dependency-free driver framework built on
// go/ast and go/types. The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — but is
// self-contained: the container this repo grows in has no module
// cache, so the suite depends on nothing outside the standard library.
//
// The noalloc pass takes its allocation verdicts from the compiler:
// LoadModule's `go list` call also prints the toolchain's escape
// analysis (-gcflags=-m), so the build that runs the code judges it.
//
// The passes turn the invariants the test suite enforces at runtime
// (bit-identical serial≡parallel sweeps, 0 allocs/op hot paths, pooled
// records that survive fleet resets, Options.Seed-rooted RNG streams)
// into compile-step rejections over the whole module, not just the
// code paths the tests happen to exercise. See DESIGN.md §12 for the
// pass-by-pass contract and the //apcvet: annotation grammar.
//
// cmd/apcvet is the multichecker binary; `make lint` runs it over ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics (e.g. "determinism").
	Name string
	// Doc is the one-paragraph contract shown by `apcvet -help`.
	Doc string
	// Run inspects one package and reports violations via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Ann holds this package's parsed //apcvet: annotations.
	Ann *Annotations
	// Facts is the module-wide annotation table (every loaded
	// package's annotations merged), so cross-package calls resolve
	// against the callee's own annotations.
	Facts *Facts

	escapes map[string][]heapEscape
	report  func(Diagnostic)
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Pass: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a //apcvet:<verb> suppression comment
// covers pos (trailing on the same line, or alone on the line above).
func (p *Pass) Suppressed(verb string, pos token.Pos) bool {
	return p.Ann.suppressed(verb, p.Fset.Position(pos))
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Pass    string
	Message string
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Ann   *Annotations

	// escapes is the compiler's module-wide heap-escape report, by
	// absolute file name (see parseEscapes).
	escapes map[string][]heapEscape
}

// Run applies each analyzer to each package and returns every
// diagnostic, sorted by file position. Annotation-grammar errors
// (unknown verbs, missing justifications) collected at load time are
// included under the pseudo-pass "annotation".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := BuildFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, bad := range pkg.Ann.Errs {
			diags = append(diags, Diagnostic{Pos: bad.Pos, Pass: "annotation", Message: bad.Msg})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Ann:      pkg.Ann,
				Facts:    facts,
				escapes:  pkg.escapes,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(pkgs, diags)
	return diags, nil
}

// sortDiagnostics orders by filename, then offset, then pass name so
// output is deterministic regardless of package walk order. All
// loaders share one token.FileSet, so positions compare globally.
func sortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return diags[i].Pass < diags[j].Pass
	})
}

// All is the full pass suite in canonical order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, NoAlloc, PoolSafe, SeededRNG}
}

// ---- shared helpers used by several passes ----

// calleeFunc resolves a call expression to its static callee, or nil
// when the call is dynamic (func value, interface method) or a type
// conversion / builtin.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// A method call: dynamic when the method set comes from an
			// interface (the concrete callee is unknowable here).
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.F).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// builtinName returns the builtin's name when the call targets a
// language builtin (len, cap, append, ...), else "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// FuncKey names a function for the cross-package annotation table:
// "path.Name" for top-level functions, "path.(Recv).Name" for methods
// (pointer receivers stripped).
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// declKey is FuncKey computed from syntax, for annotation collection.
func declKey(pkgPath string, decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// A generic receiver (Pool[T]) keys by its type name, as
		// FuncKey does for every instantiation.
		switch ix := t.(type) {
		case *ast.IndexExpr:
			t = ix.X
		case *ast.IndexListExpr:
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return fmt.Sprintf("%s.(%s).%s", pkgPath, id.Name, decl.Name.Name)
		}
	}
	return pkgPath + "." + decl.Name.Name
}

// isInternalPath reports whether the import path has an "internal"
// element — the determinism pass's scope (simulation code; cmd/ and
// examples/ may read the environment or wall clock for CLI purposes).
func isInternalPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// rootIdent unwraps selectors, indexes, and parens down to the
// leftmost identifier (nil when the expression is rooted elsewhere,
// e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.Ident:
			return v
		default:
			return nil
		}
	}
}
