package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// LoadModule loads, parses, and type-checks the module packages
// matching patterns (e.g. "./..."), rooted at dir. Only non-test
// GoFiles are analyzed — the invariants govern shipped simulation
// code; tests are free to use wall clocks and throwaway allocations.
//
// Package loading shells out to `go list -deps -export -json`, which
// resolves the build list and compiles export data into the build
// cache, and type-checks against that export data with the stdlib gc
// importer — the whole pipeline works offline with no dependencies
// beyond the Go toolchain itself. The same call compiles the module's
// packages with the compiler's escape analysis report (-m), which the
// build cache replays on a warm run; the noalloc pass reads its
// verdicts.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modOut, _, err := goCmd(dir, "list", "-m", "-json=Path,Dir")
	if err != nil {
		return nil, err
	}
	var mod struct{ Path, Dir string }
	if err := json.Unmarshal(modOut, &mod); err != nil {
		return nil, fmt.Errorf("go list -m decode: %w", err)
	}
	// The go command names files in compiler output relative to its
	// working directory, and the build cache replays that text as it
	// was first printed. So go list always runs from the module root,
	// with directory patterns made absolute, and -m is spelled -m=1:
	// the cache entries holding this output are then made by this
	// loader alone, whatever directory a hand-run -gcflags=-m build
	// started from.
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,Module"}
	for _, p := range patterns {
		if build.IsLocalImport(p) {
			p = filepath.Join(abs, p)
		}
		args = append(args, p)
	}
	out, stderr, err := goCmd(mod.Dir, append([]string{"list", "-gcflags=" + mod.Path + "/...=-m=1"}, args[1:]...)...)
	if err != nil {
		// The failing output also holds every other package's escape
		// report; the same call without -m names just the failure.
		if _, _, plain := goCmd(mod.Dir, args...); plain != nil {
			return nil, plain
		}
		return nil, err
	}
	escapes := parseEscapes(mod.Dir, stderr)
	type listPkg struct {
		ImportPath string
		Dir        string
		Export     string
		GoFiles    []string
		Standard   bool
		Module     *struct{ Path string }
	}
	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// -deps lists the whole build graph; analyze only the module's
		// own packages (dependencies contribute export data only).
		if !p.Standard && p.Module != nil && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:    t.ImportPath,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
			Ann:     ParseAnnotations(fset, t.ImportPath, files),
			escapes: escapes,
		})
	}
	return pkgs, nil
}

// goCmd runs the go command in dir and returns its stdout and stderr.
func goCmd(dir string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go %v: %v\n%s", args, err, errBuf.Bytes())
	}
	return out, errBuf.Bytes(), nil
}

// heapEscape is one heap allocation the compiler reports: a value
// that "escapes to heap" or a variable "moved to heap".
type heapEscape struct {
	line, col int
	msg       string
}

// diagLine splits one compiler diagnostic: (file:line:col): message.
var diagLine = regexp.MustCompile(`^((.+?):(\d+):(\d+)): (.+)$`)

// parseEscapes collects the heap allocations in `-gcflags=-m` output,
// keyed by absolute file name and sorted by position. The set is
// module-wide because a generic body is compiled, and its escapes
// reported, in every package that instantiates it. Two kinds of report
// are dropped, because the function at that position does not own an
// allocation there: a constant literal boxed into an interface (the
// interface points at read-only data), and an escape at a call site
// where the output also says "inlining call to F" (the allocation is
// F's, judged in F's own body).
func parseEscapes(root string, out []byte) map[string][]heapEscape {
	lines := strings.Split(string(out), "\n")
	inlined := map[string]bool{}
	for _, ln := range lines {
		if at, _, ok := strings.Cut(ln, ": inlining call to "); ok {
			inlined[at] = true
		}
	}
	byFile := map[string][]heapEscape{}
	for _, ln := range lines {
		m := diagLine.FindStringSubmatch(ln)
		if m == nil || inlined[m[1]] {
			continue
		}
		msg := m[5]
		subject, escapes := strings.CutSuffix(msg, " escapes to heap")
		if escapes {
			if e, err := parser.ParseExpr(subject); err == nil {
				if _, lit := e.(*ast.BasicLit); lit {
					continue
				}
			}
		} else if !strings.HasPrefix(msg, "moved to heap: ") {
			continue
		}
		name := m[2]
		if !filepath.IsAbs(name) {
			name = filepath.Join(root, name)
		}
		line, _ := strconv.Atoi(m[3])
		col, _ := strconv.Atoi(m[4])
		byFile[name] = append(byFile[name], heapEscape{line, col, msg})
	}
	for name, es := range byFile {
		slices.SortFunc(es, func(a, b heapEscape) int {
			return cmp.Or(cmp.Compare(a.line, b.line), cmp.Compare(a.col, b.col), strings.Compare(a.msg, b.msg))
		})
		// A position recurs once per compile that reports it.
		byFile[name] = slices.CompactFunc(es, func(a, b heapEscape) bool { return a.line == b.line && a.col == b.col })
	}
	return byFile
}
