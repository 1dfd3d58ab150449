package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeList drives the registry listing in-process, the same
// pattern as cmd/apctop's smoke test.
func TestSmokeList(t *testing.T) {
	var b strings.Builder
	if err := run(&b, io.Discard, []string{"list"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "area", "fault-resilience"} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("list output missing experiment %q:\n%s", name, b.String())
		}
	}
}

// TestSmokeRunExperiment runs the cheapest registered experiment end to
// end, including the CSV/JSON artifact writers.
func TestSmokeRunExperiment(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	err := run(&b, io.Discard, []string{"-duration", "10ms", "-json", dir, "run", "area"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "area overhead") {
		t.Errorf("area report missing:\n%s", b.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "area.json")); err != nil {
		t.Errorf("JSON artifact not written: %v", err)
	}
}

// TestStdoutDeterministic: stdout carries only the reports, so the
// unfiltered output of a sweep is byte-identical at any -parallel
// setting, while the wall-time lines land on the log writer.
func TestStdoutDeterministic(t *testing.T) {
	var outs [2]string
	for i, par := range []string{"1", "4"} {
		var stdout, stderr strings.Builder
		if err := run(&stdout, &stderr, []string{"-duration", "30ms", "-parallel", par, "fig7"}); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(stdout.String(), "wall time") {
			t.Errorf("-parallel %s: wall time on stdout:\n%s", par, stdout.String())
		}
		if !strings.Contains(stderr.String(), "[fig7 completed in ") {
			t.Errorf("-parallel %s: no wall-time line on stderr: %q", par, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between -parallel 1 and 4:\n%s\n----\n%s", outs[0], outs[1])
	}
}

// TestSmokeScenarioWithProfiles covers the scenario subcommand and the
// -cpuprofile/-memprofile hooks: a short scenario sweep must succeed
// and leave non-empty pprof files behind.
func TestSmokeScenarioWithProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	err := run(&b, io.Discard, []string{
		"-duration", "10ms", "-parallel", "1",
		"-cpuprofile", cpu, "-memprofile", mem,
		"scenario", filepath.Join("..", "..", "examples", "scenarios", "tick-rate.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memcached-tick-rate") {
		t.Errorf("scenario report missing:\n%s", b.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestHelpIsNotAnError: -h prints usage and succeeds.
func TestHelpIsNotAnError(t *testing.T) {
	var b strings.Builder
	if err := run(&b, io.Discard, []string{"-h"}); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(b.String(), "usage: apcsim") {
		t.Errorf("-h did not print usage:\n%s", b.String())
	}
}

// TestUsageErrors: every command-line mistake surfaces as errUsage
// (exit status 2) after printing the usage text, and never panics.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"run"},
		{"scenario"},
		{"list", "extra"},
		{"no-such-experiment"},
	} {
		var b strings.Builder
		if err := run(&b, io.Discard, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
