package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc is the compile-time complement of the runtime alloc gate
// (TestRouteSteadyStateAllocs, scripts/benchgate.sh): functions
// annotated //apcvet:noalloc are steady-state hot paths whose bodies
// must not contain allocating constructs. The pass flags:
//
//   - &T{...}, slice/map/[]T literals, make, new: heap-bound (or
//     escape-prone) construction. Plain value struct literals are
//     allowed — they copy on the stack.
//   - func literals that capture variables: each creation allocates a
//     closure. (Calling an existing func value is free and allowed.
//     Engine events need no closures at all: a record or device is its
//     own sim.Handler, and converting a pointer — or an existing func
//     value, as sim.Func does — to an interface stores it in the
//     interface word without allocating.)
//   - append to locally-rooted slices: a fresh backing array per call
//     never amortizes. Appends of the form `x.f = append(x.f, ...)`
//     onto long-lived storage (a field or package variable, e.g. a
//     free list or reused batch buffer) reach steady-state capacity
//     and are allowed — exactly the semantics the runtime gate
//     measures after priming.
//   - conversions that box into an interface (non-pointer-shaped
//     source: pointers, funcs, maps and chans are free) and
//     string([]byte/[]rune) conversions.
//   - direct calls to functions that are not themselves annotated
//     //apcvet:noalloc, when the callee's package is in the
//     annotation domain (declares at least one noalloc function).
//     Calls into unaudited packages and dynamic calls (func values,
//     interface methods) are out of scope here — the runtime gate
//     still covers them; the pass enforces what it can prove.
//
// Audited exceptions (pool-miss warm-up branches, error paths)
// suppress with //apcvet:alloc <why>.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid allocating constructs in //apcvet:noalloc-annotated hot-path functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Ann.NoAlloc[declKey(pass.Pkg.Path(), fd)] {
				checkNoAllocBody(pass, fd)
			}
		}
	}
	return nil
}

func checkNoAllocBody(pass *Pass, fd *ast.FuncDecl) {
	na := &noAllocChecker{pass: pass, fd: fd}
	ast.Inspect(fd.Body, na.visit)
}

type noAllocChecker struct {
	pass *Pass
	fd   *ast.FuncDecl
}

func (na *noAllocChecker) visit(n ast.Node) bool {
	pass := na.pass
	switch n := n.(type) {
	case *ast.CompositeLit:
		// Inside a unary & the report lands on the & (handled below);
		// value struct literals are stack copies and fine. Slice, map
		// and array-of-pointer literals allocate backing storage.
		switch t := n.Type.(type) {
		case *ast.ArrayType:
			if t.Len == nil { // []T{...}; [N]T{...} is a stack value
				na.flag(n.Pos(), "slice literal allocates backing storage")
			}
		case *ast.MapType:
			na.flag(n.Pos(), "map literal allocates")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				na.flag(n.Pos(), "&composite literal escapes to the heap on the hot path")
			}
		}
	case *ast.FuncLit:
		if caps := captures(pass.Info, n); len(caps) > 0 {
			na.flag(n.Pos(), "func literal captures %s — each creation allocates a closure", caps[0])
		}
		return true // closure bodies run on the hot path too; keep checking inside
	case *ast.CallExpr:
		na.checkCall(n)
	case *ast.AssignStmt:
		for i := range n.Lhs {
			if i < len(n.Rhs) {
				na.checkBox(pass.typeOf(n.Lhs[i]), n.Rhs[i])
			}
		}
	case *ast.ReturnStmt:
		sig := pass.Info.Defs[na.fd.Name].(*types.Func).Signature()
		for i, res := range n.Results {
			if sig.Results() != nil && i < sig.Results().Len() {
				na.checkBox(sig.Results().At(i).Type(), res)
			}
		}
	}
	return true
}

func (na *noAllocChecker) flag(pos token.Pos, format string, args ...any) {
	if na.pass.Suppressed(VerbAllocOK, pos) {
		return
	}
	na.pass.Reportf(pos, format, args...)
}

func (na *noAllocChecker) checkCall(call *ast.CallExpr) {
	pass := na.pass
	if isConversion(pass.Info, call) {
		na.checkConversion(call)
		return
	}
	if b := builtinName(pass.Info, call); b != "" {
		switch b {
		case "append":
			na.checkAppend(call)
		case "make":
			na.flag(call.Pos(), "make allocates on the hot path")
		case "new":
			na.flag(call.Pos(), "new allocates on the hot path")
		}
		// len/cap/copy/delete/min/max/... don't allocate; panic is a
		// failure path.
		return
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		// Dynamic call: invoking an existing func value or interface
		// method allocates nothing by itself; its body was vetted (or
		// flagged) where the value was created.
		na.checkCallBoxing(call, nil)
		return
	}
	na.checkCallBoxing(call, fn.Signature())
	if fn.Pkg() == nil {
		return // universe-scope (error.Error via embedding, etc.)
	}
	if !pass.Facts.InNoAllocDomain(fn.Pkg().Path()) {
		return // unaudited package: runtime gate territory
	}
	if !pass.Facts.NoAlloc[FuncKey(fn)] {
		na.flag(call.Pos(), "call to %s, which is not annotated //apcvet:noalloc (callee package is in the annotation domain)", FuncKey(fn))
	}
}

// checkAppend allows the amortizing form `long.lived = append(long.lived,
// ...)` and flags everything else.
func (na *noAllocChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if root := rootIdent(call.Args[0]); root != nil {
		obj := na.pass.Info.Uses[root]
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
		if obj != nil && obj.Parent() == na.pass.Pkg.Scope() {
			return
		}
	}
	na.flag(call.Pos(), "append to a non-preallocated (locally-rooted) slice allocates fresh backing storage")
}

// checkConversion flags conversions that must allocate.
func (na *noAllocChecker) checkConversion(call *ast.CallExpr) {
	pass := na.pass
	if len(call.Args) != 1 {
		return
	}
	dst := pass.typeOf(call.Fun)
	src := pass.typeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if types.IsInterface(dst) {
		na.checkBox(dst, call.Args[0])
		return
	}
	if db, ok := dst.Underlying().(*types.Basic); ok && db.Info()&types.IsString != 0 {
		if _, ok := src.Underlying().(*types.Slice); ok {
			na.flag(call.Pos(), "string conversion from a slice copies and allocates")
		}
	}
}

// checkCallBoxing flags arguments boxed into interface parameters.
func (na *noAllocChecker) checkCallBoxing(call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		tv, ok := na.pass.Info.Types[call.Fun]
		if !ok {
			return
		}
		sig, ok = tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		na.checkBox(pt, arg)
	}
}

// checkBox reports when expr's concrete value is boxed into an
// interface-typed destination (a heap allocation for every
// non-pointer-shaped payload).
func (na *noAllocChecker) checkBox(dst types.Type, expr ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := na.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if types.IsInterface(src) || pointerShaped(src) {
		return
	}
	if b, ok := src.Underlying().(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return
	}
	na.flag(expr.Pos(), "%s value boxed into interface %s allocates", src, dst)
}

// captures returns the names of outer variables a func literal closes
// over (excluding package-level objects and its own params/locals).
func captures(info *types.Info, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Parent() == nil || obj.Parent().Parent() == types.Universe {
			return true // package-level var
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // the literal's own param or local
		}
		seen[obj] = true
		out = append(out, obj.Name())
		return true
	})
	return out
}

// typeOf is Info.Types lookup tolerating missing entries.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}
