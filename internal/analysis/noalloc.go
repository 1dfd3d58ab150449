package analysis

import (
	"go/ast"
	"go/token"
)

// NoAlloc is the compile-time complement of the runtime alloc gate
// (TestRouteSteadyStateAllocs, scripts/benchgate.sh): functions
// annotated //apcvet:noalloc are steady-state hot paths whose bodies
// must not allocate. The compiler that builds the module judges that:
// the pass flags
//
//   - every heap allocation the compiler's escape analysis reports
//     inside the body ("escapes to heap", "moved to heap"), as read by
//     LoadModule from the toolchain's own -m output. A value that stays
//     on the stack is clean whatever its syntax; a constant boxed into
//     an interface allocates nothing; an escape the compiler reports at
//     an inlined call belongs to the callee's body.
//   - append to locally-rooted slices: a fresh backing array per call
//     never amortizes, and -m prints nothing for the runtime's slice
//     growth. Appends of the form `x.f = append(x.f, ...)` onto
//     long-lived storage (a field or package variable, e.g. a free
//     list or reused batch buffer) reach steady-state capacity and are
//     allowed — exactly the semantics the runtime gate measures after
//     priming.
//   - direct calls to functions that are not themselves annotated
//     //apcvet:noalloc, when the callee's package is in the
//     annotation domain (declares at least one noalloc function). The
//     compiler judges one body at a time; this rule carries the
//     contract across calls. Calls into unaudited packages and
//     dynamic calls (func values, interface methods) are out of scope
//     here — the runtime gate still covers them.
//
// Audited exceptions (pool-miss warm-up branches, error paths)
// suppress with //apcvet:alloc <why>.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid heap allocations (by the compiler's escape analysis) in //apcvet:noalloc-annotated hot-path functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		tf := pass.Fset.File(file.Pos())
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !pass.Ann.NoAlloc[declKey(pass.Pkg.Path(), fd)] {
				continue
			}
			// A generic instantiation is also reported at the
			// declaration, ahead of the body; only the body counts.
			for _, e := range pass.escapes[tf.Name()] {
				if pos := tf.LineStart(e.line) + token.Pos(e.col-1); pos > fd.Body.Lbrace && pos < fd.Body.Rbrace {
					flagAlloc(pass, pos, "%s", e.msg)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkCall(pass, call)
				}
				return true
			})
		}
	}
	return nil
}

func flagAlloc(pass *Pass, pos token.Pos, format string, args ...any) {
	if !pass.Suppressed(VerbAllocOK, pos) {
		pass.Reportf(pos, format, args...)
	}
}

func checkCall(pass *Pass, call *ast.CallExpr) {
	if builtinName(pass.Info, call) == "append" {
		checkAppend(pass, call)
		return
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return // dynamic call, builtin, conversion or universe-scope method
	}
	if !pass.Facts.InNoAllocDomain(fn.Pkg().Path()) {
		return // unaudited package: runtime gate territory
	}
	if !pass.Facts.NoAlloc[FuncKey(fn)] {
		flagAlloc(pass, call.Pos(), "call to %s, which is not annotated //apcvet:noalloc (callee package is in the annotation domain)", FuncKey(fn))
	}
}

// checkAppend allows the amortizing form `long.lived = append(long.lived,
// ...)` and flags everything else.
func checkAppend(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if root := rootIdent(call.Args[0]); root != nil {
		obj := pass.Info.Uses[root]
		// A field (selector path, possibly resliced — the compaction
		// idiom `x.live = append(x.live[:i], x.live[i+1:]...)`) or
		// package-level slice is long-lived reusable storage; a plain
		// local append allocates fresh backing every call.
		target := ast.Unparen(call.Args[0])
		if se, ok := target.(*ast.SliceExpr); ok {
			target = ast.Unparen(se.X)
		}
		if _, isSel := target.(*ast.SelectorExpr); isSel {
			return
		}
		if obj != nil && obj.Parent() == pass.Pkg.Scope() {
			return
		}
	}
	flagAlloc(pass, call.Pos(), "append to a non-preallocated (locally-rooted) slice allocates fresh backing storage")
}
