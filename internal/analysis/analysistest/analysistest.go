// Package analysistest runs apcvet analyzers over fixture packages and
// checks their diagnostics against inline expectations, in the style
// of golang.org/x/tools/go/analysis/analysistest but built on the
// stdlib only (this module vendors no dependencies).
//
// A fixture is a directory of .go files forming one package. Every
// line that should produce diagnostics carries a trailing comment of
// the form
//
//	// want "regexp" "another regexp"
//
// with one quoted regexp per expected diagnostic on that line. The
// harness fails the test for any diagnostic with no matching
// expectation and for any expectation no diagnostic matched — so a
// fixture locks both that violations are caught and that clean idioms
// stay clean.
//
// Fixtures load through analysis.LoadModule, exactly like the module
// itself, so they type-check against `go list -export` data and the
// noalloc fixture is judged by the same compiler escape report; the
// tests run offline. A fixture may import the standard library only.
package analysistest

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"agilepkgc/internal/analysis"
)

// wantRE matches one quoted expectation in a `// want` comment —
// either a double-quoted Go string or a raw backquoted regexp.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run loads the fixture package in dir through the module loader and
// checks the analyzers' diagnostics against the fixture's `// want`
// expectations. The fixture's import path is its module path, so the
// determinism fixture sits under an internal/ element as that pass
// requires.
func Run(t *testing.T, dir string, analyzers []*analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.LoadModule(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d module packages, want 1 (a fixture may import the standard library only)", dir, len(pkgs))
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}
	fset := pkgs[0].Fset
	wants := map[string]map[int][]*expectation{}
	for _, f := range pkgs[0].Files {
		name := fset.File(f.Pos()).Name()
		wants[name] = parseWants(t, name)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants[pos.Filename][pos.Line], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic (%s): %s", pos.Filename, pos.Line, d.Pass, d.Message)
		}
	}
	for file, byLine := range wants {
		for line, exps := range byLine {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected a diagnostic matching %q, got none", file, line, e.re.String())
				}
			}
		}
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched expectation whose regexp matches the
// message and reports whether one existed.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts `// want "..."` expectations per source line.
// Scanning raw lines (rather than the comment AST) keeps the harness
// independent of how the fixture mixes wants with apcvet markers.
func parseWants(t *testing.T, filename string) map[int][]*expectation {
	t.Helper()
	src, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int][]*expectation{}
	for i, line := range strings.Split(string(src), "\n") {
		_, rest, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, m := range wantRE.FindAllString(rest, -1) {
			var pat string
			if m[0] == '`' {
				pat = m[1 : len(m)-1]
			} else {
				var err error
				if pat, err = strconv.Unquote(m); err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", filename, i+1, m, err)
				}
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
			}
			out[i+1] = append(out[i+1], &expectation{re: re})
		}
	}
	return out
}
