package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the example scenarios' hash file")

// exampleFiles returns the shipped examples/scenarios/*.json files.
func exampleFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExampleScenariosParse locks the shipped example files to the
// schema: every examples/scenarios/*.json must load and validate, so a
// schema change that orphans the documented examples fails `make ci`
// instead of a reader.
func TestExampleScenariosParse(t *testing.T) {
	files := exampleFiles(t)
	// Guards against the directory silently moving: the repo ships at
	// least the tick-rate, batching, and two cluster files.
	if len(files) < 4 {
		t.Fatalf("expected at least 4 example scenario files, found %d: %v", len(files), files)
	}
	seen := map[string]string{}
	for _, f := range files {
		scs, err := LoadFile(f)
		if err != nil {
			t.Errorf("%s does not parse: %v", f, err)
			continue
		}
		if len(scs) == 0 {
			t.Errorf("%s holds no scenarios", f)
		}
		for _, sc := range scs {
			if prev, dup := seen[sc.Name]; dup {
				t.Errorf("scenario name %q appears in both %s and %s", sc.Name, prev, f)
			}
			seen[sc.Name] = f
			if sc.Description == "" {
				t.Errorf("%s: scenario %q ships without a description", f, sc.Name)
			}
		}
	}
}

// TestExampleScenariosGoldenHash is the full-precision lock of the
// shipped examples: every scenario runs at its effective options
// (QuickOptions with its own duration_ms/seed overrides applied), and
// the SHA-256 of its result's json.Marshal must match a committed
// "name hash" line, as must the SHA-256 of its Report() text and of its
// WriteCSV bytes (examples_quick_output.sha256). encoding/json keeps every bit of a float64, so
// this catches drift the rendered reports round away. Regenerate
// deliberately with
//
//	go test ./internal/scenario/ -run TestExampleScenariosGoldenHash -update
//
// The lock holds on amd64 and 386, whose compilers fuse no float
// multiply-adds; other architectures fuse some, which moves low bits
// (ROADMAP item 1 removes the fused sites).
func TestExampleScenariosGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("full-precision lock holds on amd64 and 386 only until the fused multiply-adds go (ROADMAP item 1); GOARCH=%s", runtime.GOARCH)
	}
	var lines, outputs []string
	sum := func(data []byte) string { return fmt.Sprintf("%x", sha256.Sum256(data)) }
	for _, f := range exampleFiles(t) {
		scs, err := LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			res, err := sc.Run(experiments.QuickOptions())
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			lines = append(lines, sc.Name+" "+sum(data))
			// The rendered outputs: the report text and the CSV bytes.
			var csv strings.Builder
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatalf("%s: WriteCSV: %v", sc.Name, err)
			}
			outputs = append(outputs, sc.Name+".report "+sum([]byte(res.Report())),
				sc.Name+".csv "+sum([]byte(csv.String())))
		}
	}
	checkLock(t, filepath.Join("testdata", "examples_quick.sha256"), lines)
	checkLock(t, filepath.Join("testdata", "examples_quick_output.sha256"), outputs)
}

// checkLock compares "name hash" lines against the committed file at
// path (rewriting it under -update). A mismatch names every diverging
// line and writes the full got-file next to the lock.
func checkLock(t *testing.T, path string, lines []string) {
	t.Helper()
	out := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing hash file (run with -update to create): %v", err)
	}
	if out == string(data) {
		return
	}
	got := map[string]string{}
	for _, l := range lines {
		name, sum, _ := strings.Cut(l, " ")
		got[name] = sum
	}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(l, " ")
		if got[name] != sum {
			t.Errorf("%s: output differs from the full-precision lock in %s", name, path)
		}
		delete(got, name)
	}
	for name := range got {
		t.Errorf("%s: produced but not in %s", name, path)
	}
	gotPath := strings.TrimSuffix(path, ".sha256") + ".got.sha256"
	if err := os.WriteFile(gotPath, []byte(out), 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("hashes written to %s", gotPath)
	}
}

// TestReadmeListsEveryAxis keeps the `axis` row of README's `sweep`
// table in step with the axis table: it must name exactly Axes().
func TestReadmeListsEveryAxis(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "| `axis` |") {
			row = l
		}
	}
	cells := strings.Split(row, "|")
	if len(cells) < 6 {
		t.Fatalf("README has no `axis` row in its sweep table (found %q)", row)
	}
	var listed []string
	for i, f := range strings.Split(cells[4], "`") {
		if i%2 == 1 {
			listed = append(listed, f)
		}
	}
	slices.Sort(listed)
	if want := Axes(); !slices.Equal(listed, want) {
		t.Errorf("README's axis row lists %v, want %v", listed, want)
	}
}
