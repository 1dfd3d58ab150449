package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"agilepkgc/internal/analysis"
)

// loadOnce shares one module load (go list -export over ./...) between
// the self-hosting test and the facts-coverage test.
var loadOnce struct {
	sync.Once
	pkgs []*analysis.Package
	err  error
}

func modulePkgs(t *testing.T) []*analysis.Package {
	t.Helper()
	loadOnce.Do(func() {
		loadOnce.pkgs, loadOnce.err = analysis.LoadModule("../..", "./...")
	})
	if loadOnce.err != nil {
		t.Fatalf("loading module packages: %v", loadOnce.err)
	}
	return loadOnce.pkgs
}

// TestSelfHost is the suite's keystone: the module must be clean under
// all four passes. A diagnostic here means either the code broke an
// invariant or a pass grew a false positive — both block CI.
func TestSelfHost(t *testing.T) {
	pkgs := modulePkgs(t)
	if len(pkgs) == 0 {
		t.Fatal("module load returned no packages")
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		t.Errorf("%s: [%s] %s", pos, d.Pass, d.Message)
	}
}

// testOnlyAllowed names the exported capabilities under internal/ that
// only tests reach, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"agilepkgc/internal/stats.ExactQuantile":       "the quantile oracle histogram tests compare against",
	"agilepkgc/internal/experiments.QuickOptions":  "the short-run preset the experiment tests share",
	"agilepkgc/internal/workload/replay.Decode":    "the whole-buffer decoder the trace fuzzer drives",
	"agilepkgc/internal/analysis/analysistest.Run": "the fixture driver of a test-support package",
}

// TestNoTestOnlyExports fails when an exported top-level func or type
// declared under internal/ is used by no non-test file of the module
// and named by no selector in perfbench/*.go (a separate module, so
// scanned syntactically). Such a capability is reached only from its
// own tests: delete it with them, or allowlist it with a reason. It
// also fails on an allowlist entry that names no such declaration, so
// an entry cannot outlive what it names. Methods, consts and vars are
// exempt — tests observe the models through accessors.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := modulePkgs(t)
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
	}
	bench, err := filepath.Glob(filepath.Join("..", "..", "perfbench", "*.go"))
	if err != nil || len(bench) == 0 {
		t.Fatalf("no perfbench/*.go files found (err %v)", err)
	}
	fset := token.NewFileSet()
	for _, name := range bench {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var unused []string
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "agilepkgc/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var names []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names = append(names, d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							names = append(names, ts.Name)
						}
					}
				}
				for _, id := range names {
					key := pkg.Path + "." + id.Name
					declared[key] = true
					if id.IsExported() && !used[key] && testOnlyAllowed[key] == "" {
						unused = append(unused, key)
					}
				}
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but reached only from tests: delete it, or allowlist it in testOnlyAllowed with a reason", key)
	}
	for key := range testOnlyAllowed {
		if !declared[key] {
			t.Errorf("%s is allowlisted as test-only but no top-level func or type under internal/ has that name: drop it from testOnlyAllowed", key)
		}
		if used[key] {
			t.Errorf("%s is allowlisted as test-only but a non-test file now uses it: drop it from testOnlyAllowed", key)
		}
	}
}

// windowAllowed names the packages outside internal/soc and
// internal/power that may take a meter Snapshot or read the APMU's PC1A
// residency themselves, each with the reason it stays.
var windowAllowed = map[string]string{
	"agilepkgc/internal/core": "the APMU's own String reports its lifetime residency",
	"agilepkgc/cmd/apctop":    "per-interval readout through the emulated MSRs, by design",
}

// TestOneMeasurementWindow fails when a non-test file outside
// internal/soc and internal/power calls Meter.Snapshot or reads
// APMU.Residency(pmu.PC1A): every measured window's watts and PC1A
// numbers come from soc.Window, so one point gives one answer. Read
// them from a window, or allowlist the package in windowAllowed with a
// reason.
func TestOneMeasurementWindow(t *testing.T) {
	const (
		snapshot  = "(*agilepkgc/internal/power.Meter).Snapshot"
		residency = "(*agilepkgc/internal/core.APMU).Residency"
	)
	seen := map[string]bool{}
	for _, pkg := range modulePkgs(t) {
		if pkg.Path == "agilepkgc/internal/soc" || pkg.Path == "agilepkgc/internal/power" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				name := fn.FullName()
				if name != snapshot && (name != residency || len(call.Args) != 1 || !isPC1A(pkg.Info, call.Args[0])) {
					return true
				}
				if windowAllowed[pkg.Path] != "" {
					seen[pkg.Path] = true
					return true
				}
				t.Errorf("%s: %s reads the measurement directly: use soc.Window (OpenWindow), or allowlist %s in windowAllowed with a reason",
					pkg.Fset.Position(call.Pos()), sel.Sel.Name, pkg.Path)
				return true
			})
		}
	}
	for path := range windowAllowed {
		if !seen[path] {
			t.Errorf("%s is allowlisted in windowAllowed but reads no measurement directly: drop it", path)
		}
	}
}

// tracerAllowed names the packages outside internal/trace that may
// attach a trace.Tracer, each with the reason it stays. Residency and
// the all-idle fractions are soc.Window's; a tracer is for the numbers
// only the full-idle periods themselves give.
var tracerAllowed = map[string]string{
	"agilepkgc/internal/experiments": "Fig 6's idle-period histogram and count, and the wake probe of the Fig 8/9 performance model",
	"agilepkgc/perfbench":            "the traced run's mirror driver, until the mirror goes (ROADMAP item 6)",
}

// TestTracerAttachments fails when a non-test file outside
// internal/trace attaches a tracer (trace.New, Tracer.Init) from a
// package tracerAllowed does not name, or when an allowlisted package
// attaches none. perfbench is a separate module, so its files are
// scanned syntactically for trace.New.
func TestTracerAttachments(t *testing.T) {
	const tracePkg = "agilepkgc/internal/trace"
	attach := map[string]bool{
		tracePkg + ".New":                 true,
		"(*" + tracePkg + ".Tracer).Init": true,
	}
	seen := map[string]bool{}
	check := func(path string, pos token.Position) {
		if tracerAllowed[path] != "" {
			seen[path] = true
			return
		}
		t.Errorf("%s: %s attaches a tracer: read soc.Window instead, or allowlist it in tracerAllowed with a reason", pos, path)
	}
	for _, pkg := range modulePkgs(t) {
		if pkg.Path == tracePkg {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && attach[fn.FullName()] {
						check(pkg.Path, pkg.Fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}
	bench, err := filepath.Glob(filepath.Join("..", "..", "perfbench", "*.go"))
	if err != nil || len(bench) == 0 {
		t.Fatalf("no perfbench/*.go files found (err %v)", err)
	}
	fset := token.NewFileSet()
	for _, name := range bench {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == tracePkg {
				local = "trace"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && local != "" && sel.Sel.Name == "New" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					check("agilepkgc/perfbench", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	for path := range tracerAllowed {
		if !seen[path] {
			t.Errorf("%s is allowlisted in tracerAllowed but attaches no tracer: drop it", path)
		}
	}
}

// isPC1A reports whether e names the constant pmu.PC1A.
func isPC1A(info *types.Info, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	return ok && c.Pkg().Path() == "agilepkgc/internal/pmu" && c.Name() == "PC1A"
}

// TestHotPathFactsCoverage pins the annotation rollout: the functions
// the steady-state alloc gates exercise (fleet routing, fault
// recovery, graph joins, replay decode, pooled sources, the server's
// serve path and the generic record pool) must stay marked
// //apcvet:noalloc, and the pool lifecycle entry points must stay
// marked pooled/poolput. Deleting an annotation silently shrinks what
// apcvet checks; this test makes that loud.
func TestHotPathFactsCoverage(t *testing.T) {
	facts := analysis.BuildFacts(modulePkgs(t))
	noalloc := []string{
		"agilepkgc/internal/cluster.(Fleet).route",
		"agilepkgc/internal/cluster.(Fleet).pick",
		"agilepkgc/internal/cluster.(Fleet).putRouted",
		"agilepkgc/internal/cluster.(Fleet).onComplete",
		"agilepkgc/internal/cluster.(Fleet).recomputeCaps",
		"agilepkgc/internal/cluster.(faultState).route",
		"agilepkgc/internal/cluster.(faultState).complete",
		"agilepkgc/internal/cluster.(Graph).resolve",
		"agilepkgc/internal/cluster.(Graph).putJoin",
		"agilepkgc/internal/workload.(Generator).emit",
		"agilepkgc/internal/workload.(PushSource).Emit",
		"agilepkgc/internal/workload/replay.(Reader).Next",
		"agilepkgc/internal/workload/replay.(Reader).decode",
		"agilepkgc/internal/workload/replay.(Replay).emit",
		"agilepkgc/internal/sim.(Engine).Schedule",
		"agilepkgc/internal/sim.(Engine).At",
		"agilepkgc/internal/sim.(Engine).Step",
		"agilepkgc/internal/sim.(Engine).Run",
		"agilepkgc/internal/sim.(Event).Cancel",
		"agilepkgc/internal/sim.(Pool).Get",
		"agilepkgc/internal/sim.(Pool).Put",
		"agilepkgc/internal/server.(Server).Submit",
		"agilepkgc/internal/server.(Server).step",
		"agilepkgc/internal/server.(Server).recycle",
		// Event handlers: every engine event fires one of these.
		"agilepkgc/internal/sim.(Func).Fire",
		"agilepkgc/internal/server.(inflight).Fire",
		"agilepkgc/internal/server.(batchTimer).Fire",
		"agilepkgc/internal/cluster.(routedReq).Fire",
		"agilepkgc/internal/cluster.(attempt).Fire",
		"agilepkgc/internal/cluster.(timeoutTimer).Fire",
		"agilepkgc/internal/cluster.(hedgeTimer).Fire",
		"agilepkgc/internal/cluster.(crashTimer).Fire",
		"agilepkgc/internal/cluster.(repairTimer).Fire",
		"agilepkgc/internal/cluster.(brownoutTimer).Fire",
		"agilepkgc/internal/cluster.(brownoutEndTimer).Fire",
		"agilepkgc/internal/cluster.(partitionTimer).Fire",
		"agilepkgc/internal/cluster.(healTimer).Fire",
		"agilepkgc/internal/cluster.(holdTimer).Fire",
		"agilepkgc/internal/cluster.(feedbackTimer).Fire",
		"agilepkgc/internal/workload.(arrivalTimer).Fire",
		"agilepkgc/internal/workload/replay.(arrivalTimer).Fire",
		"agilepkgc/internal/cpu.(coreTimer).Fire",
		"agilepkgc/internal/ios.(standbyEntryTimer).Fire",
		"agilepkgc/internal/ios.(standbyExitTimer).Fire",
		"agilepkgc/internal/ios.(l1EntryTimer).Fire",
		"agilepkgc/internal/ios.(l1ExitTimer).Fire",
		"agilepkgc/internal/dram.(ckeEntryTimer).Fire",
		"agilepkgc/internal/dram.(exitTimer).Fire",
		"agilepkgc/internal/dram.(srEntryTimer).Fire",
		"agilepkgc/internal/dram.(completeTimer).Fire",
		"agilepkgc/internal/dram.(batchTimer).Fire",
		"agilepkgc/internal/pdn.(rampTimer).Fire",
		"agilepkgc/internal/clock.(lockTimer).Fire",
		"agilepkgc/internal/core.(entryTimer).Fire",
		"agilepkgc/internal/core.(wakeTimer).Fire",
		"agilepkgc/internal/core.(pwrOkTimer).Fire",
		"agilepkgc/internal/pmu.(flowTimer).Fire",
		"agilepkgc/internal/soc.(memTimer).Fire",
		"agilepkgc/internal/trace.(probeTimer).Fire",
	}
	for _, key := range noalloc {
		if !facts.NoAlloc[key] {
			t.Errorf("hot-path function %s is not annotated //apcvet:noalloc", key)
		}
	}
	// The list above names today's handlers; this catches tomorrow's:
	// any Fire method declared in the module is an event handler, so it
	// must be noalloc too.
	for _, pkg := range modulePkgs(t) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "Fire" {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if ok && !facts.NoAlloc[analysis.FuncKey(fn)] {
					t.Errorf("event handler %s is not annotated //apcvet:noalloc", analysis.FuncKey(fn))
				}
			}
		}
	}
	pooled := []string{
		"agilepkgc/internal/cluster.routedReq",
		"agilepkgc/internal/cluster.logicalReq",
		"agilepkgc/internal/cluster.attempt",
		"agilepkgc/internal/cluster.joinReq",
		"agilepkgc/internal/workload.Request",
		"agilepkgc/internal/server.inflight",
	}
	for _, key := range pooled {
		if !facts.Pooled[key] {
			t.Errorf("free-listed record type %s is not annotated //apcvet:pooled", key)
		}
	}
	poolput := []string{
		"agilepkgc/internal/cluster.(Fleet).putRouted",
		"agilepkgc/internal/cluster.(faultState).freeLogical",
		"agilepkgc/internal/cluster.(faultState).freeAttempt",
		"agilepkgc/internal/cluster.(Graph).putJoin",
		"agilepkgc/internal/workload.(Generator).Release",
		"agilepkgc/internal/workload.(PushSource).Release",
		"agilepkgc/internal/workload/replay.(Replay).Release",
		"agilepkgc/internal/sim.(Pool).Put",
		"agilepkgc/internal/server.(Server).recycle",
	}
	for _, key := range poolput {
		if !facts.PoolPut[key] {
			t.Errorf("pool release point %s is not annotated //apcvet:poolput", key)
		}
	}
	for _, pkg := range []string{
		"agilepkgc/internal/cluster",
		"agilepkgc/internal/workload",
		"agilepkgc/internal/workload/replay",
		"agilepkgc/internal/sim",
		"agilepkgc/internal/server",
		"agilepkgc/internal/cpu",
		"agilepkgc/internal/ios",
		"agilepkgc/internal/dram",
		"agilepkgc/internal/pdn",
		"agilepkgc/internal/clock",
		"agilepkgc/internal/core",
		"agilepkgc/internal/pmu",
		"agilepkgc/internal/soc",
		"agilepkgc/internal/trace",
	} {
		if !facts.InNoAllocDomain(pkg) {
			t.Errorf("package %s dropped out of the noalloc annotation domain", pkg)
		}
	}
}

// TestAnnotationGrammar locks the marker grammar errors: unknown
// verbs, markers with arguments, suppressions without justifications,
// and verb/declaration-kind mismatches all surface as AnnErrs (which
// Run reports under the "annotation" pseudo-pass).
func TestAnnotationGrammar(t *testing.T) {
	const src = `package p

//apcvet:bogus something
func a() {}

//apcvet:noalloc because it is hot
func b() {}

func c(m map[int]int) {
	//apcvet:ordered
	for range m {
	}
}

//apcvet:pooled
func d() {}

//apcvet:noalloc
type q struct{}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "grammar.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ann := analysis.ParseAnnotations(fset, "example.com/p", []*ast.File{file})
	wants := []string{
		"unknown apcvet annotation verb bogus",
		"apcvet:noalloc takes no argument",
		"apcvet:ordered needs a justification",
		"apcvet:pooled marks a type, not a function",
		"apcvet:noalloc marks a function, not a type",
	}
	for _, want := range wants {
		found := false
		for _, e := range ann.Errs {
			if strings.Contains(e.Msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected a grammar error containing %q; got %v", want, msgs(ann.Errs))
		}
	}
	if len(ann.Errs) != len(wants) {
		t.Errorf("expected exactly %d grammar errors, got %d: %v", len(wants), len(ann.Errs), msgs(ann.Errs))
	}
}

func msgs(errs []analysis.AnnErr) []string {
	var out []string
	for _, e := range errs {
		out = append(out, e.Msg)
	}
	return out
}
