package agilepkgc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchgate runs scripts/benchgate.sh against two snapshot fixtures and
// returns its combined output and exit code.
func benchgate(t *testing.T, baseline, fresh string) (string, int) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	newPath := filepath.Join(dir, "new.json")
	for path, body := range map[string]string{basePath: baseline, newPath: fresh} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("sh", "scripts/benchgate.sh", newPath, basePath)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("benchgate.sh did not run: %v\n%s", err, out)
	}
	return string(out), exitErr.ExitCode()
}

// TestBenchgate pins the alloc-regression gate's verdicts, most
// importantly that a baseline benchmark missing from the fresh snapshot
// is a hard failure — a silently shrunken suite must not pass CI.
func TestBenchgate(t *testing.T) {
	const baseline = `[
  {"name": "BenchmarkA", "ns_op": 100, "b_op": 0, "allocs_op": 0},
  {"name": "BenchmarkB", "ns_op": 200, "b_op": 16, "allocs_op": 2}
]`
	cases := []struct {
		name     string
		fresh    string
		wantExit int
		want     string
	}{
		{"clean pass", `[
  {"name": "BenchmarkA", "ns_op": 105, "b_op": 0, "allocs_op": 0},
  {"name": "BenchmarkB", "ns_op": 190, "b_op": 16, "allocs_op": 2}
]`, 0, "benchgate: OK"},
		{"missing benchmark fails", `[
  {"name": "BenchmarkA", "ns_op": 105, "b_op": 0, "allocs_op": 0}
]`, 1, "FAIL BenchmarkB"},
		{"alloc regression fails", `[
  {"name": "BenchmarkA", "ns_op": 105, "b_op": 24, "allocs_op": 1},
  {"name": "BenchmarkB", "ns_op": 190, "b_op": 16, "allocs_op": 2}
]`, 1, "FAIL BenchmarkA allocs/op 0 -> 1"},
		{"new benchmark passes", `[
  {"name": "BenchmarkA", "ns_op": 105, "b_op": 0, "allocs_op": 0},
  {"name": "BenchmarkB", "ns_op": 190, "b_op": 16, "allocs_op": 2},
  {"name": "BenchmarkC", "ns_op": 999, "b_op": 0, "allocs_op": 0}
]`, 0, "benchgate: OK"},
		{"ns drift only warns", `[
  {"name": "BenchmarkA", "ns_op": 300, "b_op": 0, "allocs_op": 0},
  {"name": "BenchmarkB", "ns_op": 190, "b_op": 16, "allocs_op": 2}
]`, 0, "WARN BenchmarkA ns/op"},
	}
	for _, c := range cases {
		out, code := benchgate(t, baseline, c.fresh)
		if code != c.wantExit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.wantExit, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.want, out)
		}
	}
}

// TestLoc pins scripts/loc.sh's yardstick on a fixture tree: one line
// per package directory under internal/ and cmd/, counting every line
// of its non-test .go files, with _test.go files and testdata/ trees
// left out, then the lines of the .json files under internal/ outside
// testdata/, kept out of the total.
func TestLoc(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"internal/a/a.go":            "package a\n\nfunc A() {}\n",
		"internal/a/a_test.go":       "package a\n\n\n\n\n\n\n",
		"internal/a/testdata/gen.go": "package gen\n\n\n",
		"internal/a/b/b.go":          "package b\n",
		"internal/a/b/b_test.go":     "package b\n",
		"cmd/tool/main.go":           "package main\n\nfunc main() {}\n\n",
		"cmd/tool/main_test.go":      "package main\n",
		"docs/notes.go":              "package notes\n",
		"internal/a/s.json":          "[\n  {}\n]\n",
		"internal/a/b/t.json":        "{}\n",
		"internal/a/testdata/x.json": "{\n}\n",
		"cmd/tool/c.json":            "{}\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command("sh", "scripts/loc.sh", root).CombinedOutput()
	if err != nil {
		t.Fatalf("loc.sh: %v\n%s", err, out)
	}
	const want = "      4 cmd/tool\n      3 internal/a\n      1 internal/a/b\n      8 total\n" +
		"      4 json lines under internal/ (not in the total)\n"
	if string(out) != want {
		t.Errorf("loc.sh output:\n%s\nwant:\n%s", out, want)
	}
}
