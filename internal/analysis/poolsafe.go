package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe enforces the free-list lifecycle contract on record types
// annotated //apcvet:pooled (routedReq, logicalReq, attempt, joinReq,
// workload.Request — the PR 7/8/9 pooled hot-path records):
//
//  1. Use-after-release: once a function passes a record to a
//     //apcvet:poolput function (freeLogical, putRouted, Release,
//     ...), no later statement on the same path may read or store the
//     record or its fields — the pool may have already reissued it.
//     The canonical fix is the one the completion paths use: copy the
//     fields you still need into locals *before* the put. Reports are
//     position-based within one function; a report on a genuinely
//     unreachable path suppresses with //apcvet:poolok <why>.
//
//  2. Callback capture discipline: a func literal stored into a field
//     of a pooled record (the reusable completion/transit callbacks)
//     may capture only the record itself, and must resolve everything
//     else — fleet, member, request — through that owner pointer at
//     call time. Capturing any other variable freezes state from the
//     record's *first* lifetime: after a fleet reset (or pool reissue)
//     the captured pointer is stale while the record lives on. This
//     is the PR 7 reset contract, now compiler-checked.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "enforce free-list lifecycle: no use-after-release of //apcvet:pooled records; record callbacks capture only their owner",
	Run:  runPoolSafe,
}

func runPoolSafe(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterPut(pass, fd)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				checkCallbackCaptures(pass, as)
			}
			if cl, ok := n.(*ast.CompositeLit); ok {
				checkLitCallbacks(pass, cl)
			}
			return true
		})
	}
	return nil
}

// pooledElem returns the pooled type's name when t is a pointer to an
// annotated record type (or the record itself), else "".
func pooledElem(facts *Facts, t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if facts.Pooled[key] {
		return named.Obj().Name()
	}
	return ""
}

// putCall describes one release site inside a function body.
type putCall struct {
	call *ast.CallExpr
	obj  types.Object // the released variable
	name string       // pooled type name, for the message
}

// checkUseAfterPut finds poolput calls and flags any later use of the
// released variable in the same function. "Later" is source order,
// refined by reachability: uses outside the put's innermost block are
// only flagged when that block falls through (no terminating
// return/branch/panic between the put and the block's end).
//
// Each func literal body is its own scope: a put inside a callback
// runs when the callback fires, not at the callback's source position,
// so it constrains only the callback's own body — while a callback
// *created* after a put and capturing the released record is flagged
// (it will fire holding a reissued record).
func checkUseAfterPut(pass *Pass, fd *ast.FuncDecl) {
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	for _, b := range bodies {
		checkUseAfterPutIn(pass, b)
	}
}

func checkUseAfterPutIn(pass *Pass, body *ast.BlockStmt) {
	var puts []putCall
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // nested literal: its puts belong to its own scope
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !pass.Facts.PoolPut[FuncKey(fn)] {
			return true
		}
		sig := fn.Signature()
		for i, arg := range call.Args {
			if i >= sig.Params().Len() && !sig.Variadic() {
				break
			}
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				continue
			}
			if name := pooledElem(pass.Facts, obj.Type()); name != "" {
				puts = append(puts, putCall{call: call, obj: obj, name: name})
			}
		}
		return true
	})
	if len(puts) == 0 {
		return
	}
	for _, put := range puts {
		limit := reachLimit(body, put.call)
		// A plain `=` reassignment of the released variable rebinds it to
		// a different record (graph.finish walks the parent chain this
		// way: putJoin(jr); ...; jr = parent). The rebinding ends the
		// constraint: later uses read the new value, and the LHS ident
		// itself is a write, not a read of the stale record.
		rebound := rebindAfter(pass, body, put)
		if rebound < limit {
			limit = rebound
		}
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if pass.Info.Uses[id] != put.obj || id.Pos() <= put.call.End() || id.End() > limit {
				return true
			}
			if pass.Suppressed(VerbPoolOK, id.Pos()) {
				return true
			}
			pass.Reportf(id.Pos(), "%s used after being released to the pool at %s — copy needed fields into locals before the put (//apcvet:poolok <why> if this path is unreachable)",
				id.Name, pass.Fset.Position(put.call.Pos()))
			return true
		})
	}
}

// rebindAfter returns the position of the first plain `=` assignment
// after the put whose sole effect on the released variable is to
// rebind it (a bare ident on the left-hand side). Uses at or past that
// assignment see the new binding, not the released record.
func rebindAfter(pass *Pass, body *ast.BlockStmt, put putCall) token.Pos {
	rebound := body.End()
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || as.Pos() <= put.call.End() {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if ok && pass.Info.Uses[id] == put.obj && as.Pos() < rebound {
				rebound = as.Pos()
			}
		}
		return true
	})
	return rebound
}

// reachLimit bounds how far past the put a use is considered
// reachable: to the end of the function normally, but only to the end
// of the put's innermost block when that block cannot fall through
// (its statement list ends, after the put, with a return / branch /
// panic) — the classic `if done { put(r); return }` shape.
func reachLimit(body *ast.BlockStmt, call *ast.CallExpr) token.Pos {
	// Find the chain of blocks enclosing the call.
	var chain []*ast.BlockStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > call.End() || n.End() < call.Pos() {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			chain = append(chain, b)
		}
		return true
	}
	ast.Inspect(body, walk)
	limit := body.End()
	// Innermost block last; if every enclosing block from the
	// innermost up terminates after the put, the limit stays that
	// block's end — otherwise execution can fall through to the rest
	// of the function.
	for i := len(chain) - 1; i > 0; i-- {
		b := chain[i]
		if blockTerminatesAfter(b, call.End()) {
			return b.End()
		}
	}
	return limit
}

// blockTerminatesAfter reports whether the block's statement list,
// restricted to statements at or after pos, ends in a terminating
// statement (return, branch, panic call).
func blockTerminatesAfter(b *ast.BlockStmt, pos token.Pos) bool {
	if len(b.List) == 0 {
		return false
	}
	last := b.List[len(b.List)-1]
	if last.End() < pos {
		return false
	}
	switch s := last.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkCallbackCaptures enforces rule 2 on `rec.field = func() {...}`
// assignments.
func checkCallbackCaptures(pass *Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		sel, ok := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		ownerID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			continue
		}
		owner := pass.Info.Uses[ownerID]
		if owner == nil {
			continue
		}
		name := pooledElem(pass.Facts, owner.Type())
		if name == "" {
			continue
		}
		for _, capObj := range captureObjs(pass.Info, lit) {
			if capObj == owner {
				continue
			}
			if pass.Suppressed(VerbPoolOK, lit.Pos()) {
				continue
			}
			pass.Reportf(lit.Pos(), "callback stored in pooled %s.%s captures %q — capture only the record and resolve state through it at call time (the record outlives this %s via the free list)",
				name, sel.Sel.Name, capObj.Name(), capObj.Name())
		}
	}
}

// checkLitCallbacks enforces rule 2 on composite-literal construction
// of pooled records: a callback field initialized in the literal has
// no owner variable yet, so it must capture nothing at all.
func checkLitCallbacks(pass *Pass, cl *ast.CompositeLit) {
	tv, ok := pass.Info.Types[cl]
	if !ok || pooledElem(pass.Facts, tv.Type) == "" {
		return
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		lit, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			continue
		}
		for _, capObj := range captureObjs(pass.Info, lit) {
			if pass.Suppressed(VerbPoolOK, lit.Pos()) {
				continue
			}
			pass.Reportf(lit.Pos(), "callback initialized in a pooled %s literal captures %q — bind callbacks after construction, capturing only the record",
				pooledElem(pass.Facts, tv.Type), capObj.Name())
		}
	}
}

// captureObjs returns the outer *types.Var objects a func literal
// closes over.
func captureObjs(info *types.Info, lit *ast.FuncLit) []types.Object {
	var out []types.Object
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
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}
