package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// SeededRNG vets every RNG-stream creation outside _test.go files:
// the math/rand and math/rand/v2 constructors (rand.New, NewPCG,
// NewSource, NewChaCha8) and the module's own seed wrappers —
// functions like stats.NewRNG whose body calls one of those
// constructors directly (discovered from syntax, so a new wrapper is
// vetted automatically).
//
// At each creation site, every integer seed argument must be rooted
// in the run's seed plumbing, never invented at the site:
//
//   - a constant argument ("rand.NewPCG(42, 99)") is a bare literal —
//     the stream is the same for every run regardless of
//     Options.Seed, which silently decouples that subsystem from the
//     seed sweep;
//   - a non-constant argument must mention a seed-named identifier or
//     field (seed, Seed, ...) or be drawn from an existing stream
//     (r.Uint64() — the Fork pattern), so the chain back to
//     Options.Seed is visible at the site;
//   - two sites in the same function must not derive identical
//     streams: the salt (the constant in `seed ^ salt`, or 0 when the
//     seed is passed bare) must be distinct per site, the way
//     faults.go gives its crash / brownout / partition processes
//     three salted streams off one fleet seed.
var SeededRNG = &Analyzer{
	Name: "seededrng",
	Doc:  "RNG streams must derive from Options.Seed-rooted expressions with distinct salts, never bare literals",
	Run:  runSeededRNG,
}

func runSeededRNG(pass *Pass) error {
	wrappers := seedWrappers(pass)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeedSites(pass, wrappers, fd)
		}
	}
	return nil
}

// randConstructor reports whether fn is a math/rand(/v2) stream
// constructor.
func randConstructor(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

// seedWrappers collects module functions whose bodies call a rand
// constructor directly — call sites of these are seed sites too. The
// scan is cross-package: every loaded package's syntax contributes,
// keyed by FuncKey. For the packages at hand that finds stats.NewRNG;
// a future wrapper enrolls itself by construction.
func seedWrappers(pass *Pass) map[string]bool {
	// Only this package's Info can resolve its own calls, so the body
	// scan covers local wrappers; cross-package wrapper calls are
	// matched by shape instead (isSeedWrapper), keeping the pass
	// independent of package analysis order.
	w := map[string]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && randConstructor(calleeFunc(pass.Info, call)) {
					found = true
				}
				return !found
			})
			if found {
				w[declKey(pass.Pkg.Path(), fd)] = true
			}
		}
	}
	return w
}

// isSeedWrapper reports whether the callee forwards a seed into a new
// stream: found in this package's wrapper scan, or — for
// cross-package calls, where the body is out of reach — a top-level
// function that takes an integer and returns a stream type
// (stats.NewRNG's shape), judged from exported type information.
// Functions that merely *plumb* a seed deeper (cluster.New,
// scenario.Run) are not creation sites; their own bodies are vetted
// where they live.
func isSeedWrapper(pass *Pass, wrappers map[string]bool, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if wrappers[FuncKey(fn)] {
		return true
	}
	if fn.Pkg() == pass.Pkg || fn.Signature().Recv() != nil {
		return false // local functions were scanned directly; methods derive from their stream
	}
	sig := fn.Signature()
	returnsStream := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isRNGType(sig.Results().At(i).Type()) {
			returnsStream = true
		}
	}
	if !returnsStream {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isIntegerType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// seedSite is one integer seed argument at one creation call.
type seedSite struct {
	arg  ast.Expr
	call *ast.CallExpr
}

func checkSeedSites(pass *Pass, wrappers map[string]bool, fd *ast.FuncDecl) {
	var sites []seedSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if !randConstructor(fn) && !isSeedWrapper(pass, wrappers, fn) {
			return true
		}
		for _, arg := range call.Args {
			tv, ok := pass.Info.Types[arg]
			if !ok || !isIntegerType(tv.Type) {
				continue // rand.New(rand.NewPCG(...)) — the inner call is its own site
			}
			sites = append(sites, seedSite{arg: arg, call: call})
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	// Rule 1+2 per site.
	for _, s := range sites {
		tv := pass.Info.Types[s.arg]
		if tv.Value != nil {
			pass.Reportf(s.arg.Pos(), "RNG seeded with the bare constant %s — derive it from the run's Options.Seed (e.g. seed^salt) so the stream follows the seed sweep", tv.Value)
			continue
		}
		if !seedRooted(pass, s.arg) {
			pass.Reportf(s.arg.Pos(), "RNG seed %s has no visible root in the run's seed plumbing — derive it from a seed-named value or an existing stream (Fork)", render(pass.Fset, s.arg))
		}
	}
	// Rule 3: distinct salts per enclosing function.
	salts := map[string][]seedSite{}
	for _, s := range sites {
		if pass.Info.Types[s.arg].Value != nil {
			continue // already reported as a bare constant
		}
		base, salt, ok := splitSalt(pass, s.arg)
		if !ok {
			continue // non-constant salt (per-index derivation etc.) — trusted
		}
		key := base + "^" + salt
		salts[key] = append(salts[key], s)
	}
	for key, group := range salts {
		if len(group) < 2 {
			continue
		}
		base, _, _ := strings.Cut(key, "^")
		for _, s := range group[1:] {
			pass.Reportf(s.arg.Pos(), "RNG stream derived from %s with the same salt as the site at %s — sibling streams in one function need distinct salts or they are identical",
				base, pass.Fset.Position(group[0].arg.Pos()))
		}
	}
}

// seedRooted reports whether the expression visibly chains back to
// seed plumbing: it mentions an identifier or selector whose name
// contains "seed" (case-insensitive), or calls a method on an
// existing RNG stream (*stats.RNG, *rand.Rand, rand.Source).
func seedRooted(pass *Pass, e ast.Expr) bool {
	rooted := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "seed") {
				rooted = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if t := pass.typeOf(sel.X); t != nil && isRNGType(t) {
					rooted = true
				}
			}
		}
		return !rooted
	})
	return rooted
}

// isRNGType recognizes existing stream types (deriving a child seed
// from a parent stream keeps the chain to Options.Seed intact).
func isRNGType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	if named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	switch {
	case name == "RNG": // the module's stats.RNG wrapper
		return true
	case (path == "math/rand" || path == "math/rand/v2") && (name == "Rand" || name == "PCG" || name == "ChaCha8" || name == "Source"):
		return true
	}
	return false
}

// splitSalt decomposes `base ^ constSalt` (or a bare expression =
// salt 0). It reports ok=false when the salt is not constant.
func splitSalt(pass *Pass, e ast.Expr) (base, salt string, ok bool) {
	if bin, isBin := ast.Unparen(e).(*ast.BinaryExpr); isBin && (bin.Op == token.XOR || bin.Op == token.ADD) {
		if v := pass.Info.Types[bin.Y].Value; v != nil && v.Kind() == constant.Int {
			return render(pass.Fset, bin.X), v.ExactString(), true
		}
		if v := pass.Info.Types[bin.X].Value; v != nil && v.Kind() == constant.Int {
			return render(pass.Fset, bin.Y), v.ExactString(), true
		}
		return "", "", false
	}
	return render(pass.Fset, e), "0", true
}

// render prints an expression compactly for diagnostics and salt-base
// comparison.
func render(fset *token.FileSet, e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.SelectorExpr:
		return render(fset, v.X) + "." + v.Sel.Name
	case *ast.BinaryExpr:
		return render(fset, v.X) + v.Op.String() + render(fset, v.Y)
	case *ast.CallExpr:
		return render(fset, v.Fun) + "(...)"
	default:
		return fmt.Sprintf("<expr@%v>", fset.Position(e.Pos()).Line)
	}
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
