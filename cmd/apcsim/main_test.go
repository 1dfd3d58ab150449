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

// TestScenarioRejectsUnrunnableInputs: each of these scenarios once
// loaded and then panicked inside the engine. Each must now fail at
// load with an error naming its key, never a panic: a tick period of
// 1e12 s (as a knob and as a sweep value), a window of 1e17 ms, service
// times slowed 1e30-fold, and two delays that fit int64 but not once
// added to now, a doubled retry timeout and a hedge delay.
func TestScenarioRejectsUnrunnableInputs(t *testing.T) {
	const mc = `"config": "CPC1A", "workload": {"service": "memcached", "qps": 20000}`
	for _, c := range []struct{ json, key string }{
		{`{"name": "x", ` + mc + `, "server": {"timer_tick_hz": 1e-12, "tick_kernel_us": 1}}`, "server.timer_tick_hz"},
		{`{"name": "x", ` + mc + `, "server": {"tick_kernel_us": 1}, "sweep": {"axis": "tick_hz", "values": [100, 1e-12]}}`, "tick_hz value"},
		{`{"name": "x", ` + mc + `, "duration_ms": 1e17}`, "duration_ms"},
		{`{"name": "x", ` + mc + `, "cluster": {"servers": 2, "policy": "round_robin",
		   "faults": {"brownout_mtbf_us": 5000, "brownout_duration_us": 5000, "brownout_factor": 1e30}}}`, "faults.brownout_factor"},
		{`{"name": "x", "config": "CPC1A", "duration_ms": 20, "workload": {"service": "memcached", "qps": 200000},
		   "cluster": {"servers": 4, "policy": "round_robin",
		   "faults": {"mtbf_us": 2000, "mttr_us": 1000, "request_timeout_us": 5e15, "max_retries": 2}}}`, "faults.request_timeout_us"},
		{`{"name": "x", ` + mc + `, "cluster": {"servers": 2, "policy": "round_robin",
		   "faults": {"hedge_delay_us": 9.22337203685e15}}}`, "faults.hedge_delay_us"},
	} {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.key, r)
				}
			}()
			err := run(io.Discard, io.Discard, []string{"-duration", "30ms", "-parallel", "1", "scenario", path})
			if err == nil || !strings.Contains(err.Error(), c.key) {
				t.Errorf("%s: got %v, want an error naming the key", c.key, err)
			}
		}()
	}
}
