package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/workload/replay"
)

// runOK drives the in-process entry point and fails the test on error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, args); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestSynthDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.trace")
	b := filepath.Join(dir, "b.trace")
	c := filepath.Join(dir, "c.trace")
	args := []string{"synth", "-service", "memcached-bursty", "-qps", "30000",
		"-burstiness", "8", "-seed", "7", "-duration", "20ms"}
	out := runOK(t, append(args, "-o", a)...)
	if !strings.Contains(out, "records") {
		t.Errorf("synth output %q does not report a record count", out)
	}
	runOK(t, append(args, "-o", b)...)
	runOK(t, append([]string{args[0], args[1], args[2], args[3], args[4], args[5],
		args[6], "-seed", "8", args[9], args[10]}, "-o", c)...)

	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	dc, _ := os.ReadFile(c)
	if !bytes.Equal(da, db) {
		t.Error("equal seeds produced different traces")
	}
	if bytes.Equal(da, dc) {
		t.Error("different seeds produced identical traces")
	}
	hdr, recs, err := replay.Decode(da)
	if err != nil {
		t.Fatalf("synthesized trace does not decode: %v", err)
	}
	if hdr.Count == 0 || len(recs) == 0 {
		t.Error("synthesized trace is empty")
	}
	if hdr.Name != "memcached-bursty-30000qps" {
		t.Errorf("trace name %q", hdr.Name)
	}
}

func TestConvertDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "log.csv")
	const log = `ts_us,service_us,conn,mem
0,16,0,4
10.5,12,3,4
10.5,50.25,7,2
500,9,1,4
`
	if err := os.WriteFile(csv, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "log.trace")
	out := runOK(t, "convert", "-o", trace, "-name", "prod-log", csv)
	if !strings.Contains(out, "4 records") || !strings.Contains(out, "8 connections") {
		t.Errorf("convert output %q does not report 4 records over 8 connections", out)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := replay.Decode(data)
	if err != nil {
		t.Fatalf("converted trace does not decode: %v", err)
	}
	if hdr.Name != "prod-log" || hdr.Count != 4 || hdr.Connections != 8 || hdr.MemAccesses != 4 {
		t.Errorf("converted header %+v", hdr)
	}
	// Derived QPS: 4 records over 500us = 8000/s.
	if hdr.MeanQPS != 8000 {
		t.Errorf("derived mean QPS %g, want 8000", hdr.MeanQPS)
	}

	// dump emits the same log back (modulo the header comments), so
	// converting the dump reproduces the trace bytes.
	dump := runOK(t, "dump", trace)
	if !strings.Contains(dump, "# workload: prod-log") || !strings.Contains(dump, csvHeader) {
		t.Errorf("dump output missing header:\n%s", dump)
	}
	csv2 := filepath.Join(dir, "log2.csv")
	if err := os.WriteFile(csv2, []byte(dump[strings.Index(dump, csvHeader):]), 0o644); err != nil {
		t.Fatal(err)
	}
	trace2 := filepath.Join(dir, "log2.trace")
	runOK(t, "convert", "-o", trace2, "-name", "prod-log", csv2)
	data2, err := os.ReadFile(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("dump | convert did not round-trip the trace bytes")
	}
	_ = recs
}

func TestConvertRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out := filepath.Join(dir, "out.trace")
	cases := []struct {
		name, content, msg string
	}{
		{"empty", "", "header line"},
		{"bad header", "time,svc\n", "want"},
		{"no records", csvHeader + "\n", "nothing to convert"},
		{"short row", csvHeader + "\n1,2,3\n", "want 4"},
		{"negative ts", csvHeader + "\n-1,2,3,4\n", "malformed"},
		{"unsorted", csvHeader + "\n10,2,0,0\n5,2,0,0\n", "sorted"},
		// 1e16 µs overflows int64 nanoseconds; unchecked, the wrapped
		// values surfaced as an unsorted log or a replay error.
		{"ts overflow", csvHeader + "\n1,1,0,0\n1e16,1,0,0\n", "line 3: malformed record"},
		{"service overflow", csvHeader + "\n1,1e16,0,0\n", "line 2: malformed record"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(&buf, []string{"convert", "-o", out, "-name", "x", write(c.name+".csv", c.content)})
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("convert = %v, want error mentioning %q", err, c.msg)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                        // no command
		{"frobnicate"},            // unknown command
		{"synth"},                 // missing -o
		{"synth", "-bogus"},       // unknown flag
		{"synth", "-o", "x", "y"}, // stray positional
		{"convert", "-o", "x"},    // missing -name and input
		{"dump"},                  // missing input
		{"dump", "a", "b"},        // too many inputs
		{"synth", "-o", "x", "-service", "nosuch"},
		{"synth", "-o", "x", "-duration", "-1s"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(&buf, args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Usage mistakes specifically map to errUsage (exit 2), not errors.
	var buf bytes.Buffer
	if err := run(&buf, []string{"synth"}); !errors.Is(err, errUsage) {
		t.Errorf("missing -o = %v, want errUsage", err)
	}
	if err := run(&buf, []string{"help"}); err != nil {
		t.Errorf("help = %v", err)
	}
}
