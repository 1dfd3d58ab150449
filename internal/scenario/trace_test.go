package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// writeTestTrace synthesizes a small real trace file and returns its
// path.
func writeTestTrace(t *testing.T, dir string, spec workload.Spec, seed uint64, warmup, duration sim.Duration) string {
	t.Helper()
	path := filepath.Join(dir, "test.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := replay.Synthesize(f, spec, seed, warmup, duration); err != nil {
		t.Fatal(err)
	}
	return path
}

func traceScenario(path string) Scenario {
	return Scenario{
		Name:     "tr",
		Config:   "CPC1A",
		Workload: Workload{Service: "trace", Trace: &Trace{Path: path}},
		Cluster:  &Cluster{Servers: 1, Policy: "round_robin"},
	}
}

// TestTraceValidation pins the trace block's inert-combination rules:
// every rejected shape is one where a field could never act. A case
// with an empty wantErr is a shape that must validate.
func TestTraceValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"missing block", func(s *Scenario) { s.Workload.Trace = nil }, "needs a workload.trace block"},
		{"empty path", func(s *Scenario) { s.Workload.Trace.Path = "" }, "missing workload.trace.path"},
		{"trace block on synthetic service", func(s *Scenario) {
			s.Workload.Service = "memcached"
			s.Workload.QPS = 1000
		}, "only applies"},
		{"qps on trace", func(s *Scenario) { s.Workload.QPS = 1000 }, "synthetic rate fields"},
		{"util on trace", func(s *Scenario) { s.Workload.Util = 0.5 }, "synthetic rate fields"},
		{"load on trace", func(s *Scenario) { s.Workload.Load = 0.1 }, "synthetic rate fields"},
		{"burstiness on trace", func(s *Scenario) { s.Workload.Burstiness = 4 }, "synthetic rate fields"},
		{"threads on trace", func(s *Scenario) { s.Workload.Threads = 8 }, "synthetic rate fields"},
		{"negative time scale", func(s *Scenario) { s.Workload.Trace.TimeScale = -2 }, "negative workload.trace.time_scale"},
		{"loop and truncate", func(s *Scenario) {
			s.Workload.Trace.Loop = true
			s.Workload.Trace.Truncate = true
		}, "contradict"},
		// Replay drives the root tier of any open-loop shape, the single
		// machine included.
		{"no cluster block", func(s *Scenario) { s.Cluster = nil }, ""},
		{"workload sweep axis", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisQPS, Values: []float64{1000, 2000}}
		}, "ignores sweep axis"},
		{"burstiness sweep axis", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisBurstiness, Values: []float64{2, 4}}
		}, "ignores sweep axis"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := traceScenario("whatever.trace")
			c.mutate(&sc)
			err := sc.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate rejected a valid shape: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate accepted the scenario")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
	// The valid shapes: plain, looped, scaled, and cluster-axis sweeps.
	ok := traceScenario("whatever.trace")
	if err := ok.Validate(); err != nil {
		t.Errorf("plain trace scenario rejected: %v", err)
	}
	ok.Workload.Trace.Loop = true
	ok.Workload.Trace.TimeScale = 2
	ok.Cluster.Servers = 4
	ok.Sweep = &Sweep{Axis: AxisServers, Values: []float64{2, 4}}
	ok.Cluster.Servers = 0
	if err := ok.Validate(); err != nil {
		t.Errorf("looped, scaled, servers-swept trace scenario rejected: %v", err)
	}
}

// TestTraceLoadPreflight pins load-time file checking: a missing,
// malformed or empty trace fails at Load with the line and column of
// the path that named it.
func TestTraceLoadPreflight(t *testing.T) {
	dir := t.TempDir()
	goodPath := writeTestTrace(t, dir, workload.Memcached(20000), 1, sim.Millisecond, 10*sim.Millisecond)

	scenarioJSON := func(path string, extra string) string {
		return fmt.Sprintf(`{
  "name": "tr",
  "config": "CPC1A",
  "workload": {"service": "trace",
               "trace": {"path": %q%s}},
  "cluster": {"servers": 1, "policy": "round_robin"}
}`, path, extra)
	}

	t.Run("valid", func(t *testing.T) {
		scs, err := Load(strings.NewReader(scenarioJSON(goodPath, "")))
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if scs[0].Workload.Trace.Path != goodPath {
			t.Errorf("path mangled: %q", scs[0].Workload.Trace.Path)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		missing := filepath.Join(dir, "nope.trace")
		_, err := Load(strings.NewReader(scenarioJSON(missing, "")))
		if err == nil {
			t.Fatal("Load accepted a missing trace file")
		}
		if !strings.Contains(err.Error(), "line 5") {
			t.Errorf("error %q does not locate the path on line 5", err)
		}
	})
	t.Run("malformed trace", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.trace")
		if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(strings.NewReader(scenarioJSON(bad, "")))
		if err == nil {
			t.Fatal("Load accepted a malformed trace file")
		}
		if !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), "truncated header") {
			t.Errorf("error %q does not locate line 5 with the decode failure", err)
		}
	})
	t.Run("empty trace", func(t *testing.T) {
		empty := filepath.Join(dir, "empty.trace")
		f, err := os.Create(empty)
		if err != nil {
			t.Fatal(err)
		}
		w, err := replay.NewWriter(f, replay.Meta{Name: "e", MeanQPS: 1, ServiceMean: 1e-6, Connections: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = Load(strings.NewReader(scenarioJSON(empty, "")))
		if err == nil || !strings.Contains(err.Error(), "empty trace") {
			t.Errorf("Load(empty trace) = %v, want 'empty trace' error", err)
		}
	})
	t.Run("relative path resolves against the JSON file", func(t *testing.T) {
		jsonPath := filepath.Join(dir, "sc.json")
		if err := os.WriteFile(jsonPath, []byte(scenarioJSON(filepath.Base(goodPath), "")), 0o644); err != nil {
			t.Fatal(err)
		}
		scs, err := LoadFile(jsonPath)
		if err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		if scs[0].Workload.Trace.Path != goodPath {
			t.Errorf("relative path resolved to %q, want %q", scs[0].Workload.Trace.Path, goodPath)
		}
	})
	t.Run("unknown trace field rejected", func(t *testing.T) {
		_, err := Load(strings.NewReader(scenarioJSON(goodPath, `, "speed": 2`)))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("Load(unknown field) = %v, want unknown-field error", err)
		}
	})
}

// TestTraceScenarioRuns is the end-to-end smoke: a loaded trace
// scenario runs, reports the recorded workload identity, and replays a
// nonzero stream. Deeper equivalence lives in the replay package's
// parity suite.
func TestTraceScenarioRuns(t *testing.T) {
	dir := t.TempDir()
	opt := experiments.Options{Duration: 10 * sim.Millisecond, Seed: 1, Parallelism: 1}
	spec := workload.Memcached(20000)
	path := writeTestTrace(t, dir, spec, opt.Seed, opt.Warmup(), opt.Duration)

	sc := traceScenario(path)
	res, err := sc.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Workload != spec.Name {
		t.Errorf("point workload %q, want recorded %q", p.Workload, spec.Name)
	}
	if p.OfferedQPS != spec.MeanQPS() {
		t.Errorf("offered QPS %g, want recorded %g", p.OfferedQPS, spec.MeanQPS())
	}
	if p.Generated == 0 || p.Served == 0 {
		t.Errorf("trace scenario replayed nothing: generated %d served %d", p.Generated, p.Served)
	}
}

// TestTraceShapesParity extends the single-machine and one-tier parity
// contracts to replay: a trace scenario with no block, and one with a
// one-tier tiers block, replay byte-identically — report and CSV — to
// the same trace behind a one-server round_robin cluster block.
func TestTraceShapesParity(t *testing.T) {
	opt := experiments.Options{Duration: 10 * sim.Millisecond, Seed: 1, Parallelism: 1}
	path := writeTestTrace(t, t.TempDir(), workload.MemcachedBursty(20000, 4), opt.Seed, opt.Warmup(), opt.Duration)

	clustered := traceScenario(path)
	wantRep, wantCSV := runArtifacts(t, clustered, opt)
	bare := clustered
	bare.Cluster = nil
	tiered := bare
	tiered.Tiers = []Tier{{Name: "fleet", Cluster: *clustered.Cluster}}
	for _, c := range []struct {
		name string
		sc   Scenario
	}{{"no block", bare}, {"one-tier tiers block", tiered}} {
		rep, csv := runArtifacts(t, c.sc, opt)
		if rep != wantRep {
			t.Errorf("%s: report differs:\ngot:\n%s\nwant (cluster block):\n%s", c.name, rep, wantRep)
		}
		if csv != wantCSV {
			t.Errorf("%s: CSV differs:\ngot:\n%s\nwant (cluster block):\n%s", c.name, csv, wantCSV)
		}
	}
}
