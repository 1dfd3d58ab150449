package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
	_ "agilepkgc/internal/scenario" // registers the builtin scenario experiments
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report and hash files")

// TestGoldenReports locks every registered experiment at QuickOptions
// twice over. The rendered reports must match a committed golden file
// byte for byte, and the SHA-256 of each result's json.Marshal must
// match a committed hash file: the reports round floats to printed
// precision, the JSON keeps every bit (see checkHashLock). Any change
// to the simulation, the registry or the report rendering that moves a
// single bit fails here. Regenerate deliberately with
//
//	go test ./internal/experiments/ -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	var b strings.Builder
	var sums []string
	for _, e := range experiments.All() {
		res, err := e.Run(experiments.QuickOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s\n", e.Name(), res.Report())
		sums = append(sums, hashLine(t, e.Name(), res))
	}
	checkHashLock(t, filepath.Join("testdata", "golden_quick.sha256"), sums)
	got := []byte(b.String())

	path := filepath.Join("testdata", "golden_quick.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Drop the full rendering next to the golden so CI can upload it as
	// an artifact: a lock failure then ships the would-be golden for
	// local benchstat-style diffing, not just the first divergent line.
	gotPath := filepath.Join("testdata", "golden_quick.got.txt")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("full divergent report written to %s", gotPath)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("report diverges from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("report differs from golden (length only)")
}

// hashLine renders one "name hash" line of a full-precision lock:
// encoding/json writes the shortest decimal that round-trips each
// float64, so the hash moves with the last bit of any result.
func hashLine(t *testing.T, name string, res any) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s %x", name, sha256.Sum256(data))
}

// checkHashLock compares "name hash" lines against the committed file
// at path (rewriting it under -update). A mismatch names every
// diverging result and writes the full got-file next to the golden.
// The lock holds on amd64 only: other architectures fuse float
// multiply-adds the amd64 compiler leaves apart, which moves low bits
// (ROADMAP item 1 removes the fused sites).
func checkHashLock(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("skipping the full-precision lock on %s: fused multiply-adds move low bits off amd64 (ROADMAP item 1)", runtime.GOARCH)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing hash file (run with -update to create): %v", err)
	}
	if got == string(data) {
		return
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(l, " ")
		want[name] = sum
	}
	for _, l := range lines {
		name, sum, _ := strings.Cut(l, " ")
		if want[name] != sum {
			t.Errorf("%s: result differs from the full-precision lock in %s", name, path)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: in %s but not produced", name, path)
	}
	gotPath := strings.TrimSuffix(path, ".sha256") + ".got.sha256"
	if err := os.WriteFile(gotPath, []byte(got), 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("hashes written to %s", gotPath)
	}
}

// TestGoldenResultsMarshalJSON enforces the Result contract's mandatory
// JSON marshalling: every registered experiment's result must encode to
// a non-trivial JSON object.
func TestGoldenResultsMarshalJSON(t *testing.T) {
	opt := experiments.QuickOptions()
	opt.Duration /= 10 // marshalling does not need a stable window
	for _, e := range experiments.All() {
		res, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Errorf("%s: result does not marshal: %v", e.Name(), err)
			continue
		}
		if len(data) < 10 || data[0] != '{' {
			t.Errorf("%s: implausible JSON result %q", e.Name(), data)
		}
		var back map[string]any
		if err := json.Unmarshal(data, &back); err != nil {
			t.Errorf("%s: result JSON does not round-trip: %v", e.Name(), err)
		}
	}
}
