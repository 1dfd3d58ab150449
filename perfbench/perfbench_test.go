package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// testPaths is the benchmark layout seen from this directory, where
// `go test` runs.
var testPaths = paths{workloads: "workloads", inputs: filepath.Join("..", ".bench_build", "inputs")}

func singlePoint(served, dropped, generated uint64) scenario.Point {
	return scenario.Point{
		Served: served, Dropped: dropped, Generated: generated,
		TotalWatts: 40, CC0Residency: 0.2, CC1Residency: 0.8, AllIdle: 0.5, AllIdleCensored: 0.5,
	}
}

func TestChecksRejectBrokenConservation(t *testing.T) {
	w, _ := lookupWorkload("tiered-faults")
	good := &scenario.Result{Scenario: scenario.Scenario{Name: "one", Config: "CPC1A"},
		Points: []scenario.Point{singlePoint(100, 0, 100)}}
	if v := checkResults(w, []*scenario.Result{good}); len(v) != 0 {
		t.Fatalf("conserving result flagged: %v", v)
	}

	lost := &scenario.Result{Scenario: good.Scenario, Points: []scenario.Point{singlePoint(99, 0, 100)}}
	v := checkResults(w, []*scenario.Result{lost})
	if len(v) != 1 || !strings.Contains(v[0].msg, "served 99 + dropped 0 != generated 100") {
		t.Fatalf("a request lost between generation and service must fail the checks, got %v", v)
	}

	res := 1.5
	badRes := singlePoint(100, 0, 100)
	badRes.PC1AResidency = &res
	if v := checkResults(w, []*scenario.Result{{Scenario: good.Scenario, Points: []scenario.Point{badRes}}}); len(v) != 1 {
		t.Fatalf("a residency above 1 must fail the checks, got %v", v)
	}
}

// graphResult is a conserving two-tier point: 100 root requests, 20
// edge misses at fan-out 2 issuing 40 backend requests, all served.
func graphResult() *scenario.Result {
	sc := scenario.Scenario{
		Name: "graph", Config: "CPC1A",
		Tiers: []scenario.Tier{
			{Name: "front", Cluster: scenario.Cluster{Servers: 1}},
			{Name: "db", Service: "mysql", Cluster: scenario.Cluster{Servers: 1,
				Faults: &scenario.Faults{RequestTimeoutUS: 2000}}},
		},
	}
	p := singlePoint(100, 0, 100)
	p.Tiers = []cluster.TierMeasurement{
		{Name: "front", Fleet: cluster.Measurement{Served: 100, Generated: 100, AllIdle: 0.5}},
		{Name: "db", Fleet: cluster.Measurement{Served: 41, OK: 40, Generated: 40, AllIdle: 0.5}},
	}
	p.Edges = []cluster.EdgeStats{{From: "front", To: "db", Fanout: 2, Lookups: 100, Hits: 80, Misses: 20, Issued: 40}}
	p.Client = &cluster.ClientStats{Served: 100}
	return &scenario.Result{Scenario: sc, Points: []scenario.Point{p}}
}

func TestChecksGraphAccounting(t *testing.T) {
	w, _ := lookupWorkload("tiered-faults")
	if v := checkResults(w, []*scenario.Result{graphResult()}); len(v) != 0 {
		t.Fatalf("conserving graph flagged: %v", v)
	}
	for name, breakIt := range map[string]func(p *scenario.Point){
		"issued != fanout x misses": func(p *scenario.Point) { p.Edges[0].Issued = 39 },
		"fault identity":            func(p *scenario.Point) { p.Tiers[1].Fleet.OK = 39 },
		"client identity":           func(p *scenario.Point) { p.Client.Served = 99 },
		"lookups != resolutions":    func(p *scenario.Point) { p.Edges[0].Lookups, p.Edges[0].Hits = 101, 81 },
	} {
		r := graphResult()
		breakIt(&r.Points[0])
		if v := checkResults(w, []*scenario.Result{r}); len(v) == 0 {
			t.Errorf("%s: broken graph accounting passed the checks", name)
		}
	}
}

// paperResults builds the Fig 7 pair with the given CPC1A watts and
// mean latencies against a flat 50 W, 140 us Cshallow baseline.
func paperResults(pc1aWatts, pc1aMeanUS []float64) []*scenario.Result {
	qps := []float64{4000, 10000, 20000, 50000, 100000}
	sh := &scenario.Result{Scenario: scenario.Scenario{Name: "sh", Config: "Cshallow"}, Axis: "qps"}
	ap := &scenario.Result{Scenario: scenario.Scenario{Name: "ap", Config: "CPC1A"}, Axis: "qps"}
	for i, q := range qps {
		p := singlePoint(100, 0, 100)
		p.Axis, p.MeanLatency, p.TotalWatts = q, 140e-6, 50
		sh.Points = append(sh.Points, p)
		p.TotalWatts, p.MeanLatency = pc1aWatts[i], pc1aMeanUS[i]*1e-6
		ap.Points = append(ap.Points, p)
	}
	return []*scenario.Result{sh, ap}
}

func TestPaperChecks(t *testing.T) {
	w, _ := lookupWorkload("paper-memcached")
	flat := []float64{140, 140, 140, 140, 140}
	good := paperResults([]float64{31.5, 35, 40, 43, 49}, flat)
	if v := checkResults(w, good); len(v) != 0 {
		t.Fatalf("paper-shaped results flagged: %v", v)
	}
	pc, _ := paperFigures(good)
	// 4K saves 37% (exact), 50K saves 14% (exact): zero error.
	if pc.errPP > 1e-9 || pc.impactPct != 0 {
		t.Fatalf("errPP %g impact %g, want 0 and 0", pc.errPP, pc.impactPct)
	}
	if v := checkResults(w, paperResults([]float64{31.5, 35, 40, 41, 49}, flat)); len(v) != 0 {
		t.Fatalf("monotone savings flagged: %v", v)
	}
	if v := checkResults(w, paperResults([]float64{31.5, 35, 34, 43, 49}, flat)); len(v) != 1 {
		t.Fatalf("a saving that rises with QPS must fail, got %v", v)
	}
	slow := []float64{140, 140, 140.2, 140, 140}
	if v := checkResults(w, paperResults([]float64{31.5, 35, 40, 43, 49}, slow)); len(v) != 1 {
		t.Fatalf("a 0.14%% latency impact must fail the 0.1%% bound, got %v", v)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", c.what, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"agilepkgc/internal/sim.(*Engine).heapDown":                       "sim",
		"agilepkgc/internal/workload/replay.(*Replay).emit":               "replay",
		"agilepkgc/internal/experiments.SweepWith[go.shape.*uint8].func1": "experiments",
		"agilepkgc/internal/core.(*APMU).enter":                           "core",
		"math.archLog":                                                    "math",
		"runtime.mallocgc":                                                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                    "runtime",
		"sort.Float64s":                                                   "other",
		"main.run":                                                        "other",
		"":                                                                "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

func TestFlatByLayerDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += float64(i) * 1.0001
		}
	}
	pprof.StopCPUProfile()
	byLayer, total, err := flatByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no samples in 300 ms; the profiler did not fire")
	}
	var sum int64
	for _, n := range byLayer {
		sum += n
	}
	if sum != total || byLayer["other"] == 0 {
		t.Fatalf("layers %v sum to %d of %d samples; want the spin loop (package main) under other", byLayer, sum, total)
	}
}

// shortened returns the workload's scenarios with a 20 ms window, so
// the parity test below runs in well under a second per workload.
func shortened(t *testing.T, name string) []scenario.Scenario {
	t.Helper()
	scs, err := scenario.LoadFile(testPaths.scenarioFile(name))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		scs[i].DurationMS = 20
		if s := scs[i].Sweep; s != nil {
			scs[i].Sweep = &scenario.Sweep{Axis: s.Axis, Values: s.Values[:2]}
		}
	}
	return scs
}

// TestMirrorParity is the parity contract the traced run relies
// on: the mirror, rebuilt on the public API, reproduces scenario.Run's
// points bit for bit on every workload shape.
func TestMirrorParity(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		scs := shortened(t, w.name)
		opt := experiments.Options{Seed: 7, Parallelism: 1}
		if w.prepare != nil {
			// A recording sized to the shortened window, in place of the
			// seed-generated input the benchmark writes.
			eff := scs[0].EffectiveOptions(opt)
			path := filepath.Join(dir, w.name+".trace")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.MemcachedBursty(fleetReplayQPS, fleetReplayBurstiness)
			if _, err := replay.Synthesize(f, spec, opt.Seed, eff.Warmup(), eff.Duration); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			scs[0].Workload.Trace.Path = path
		}
		ref, _, err := runRep(scs, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		d := &mirror{rec: newRecorder()}
		mirrored, err := d.run(scs, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if bad := parity(mirrored, ref); len(bad) != 0 {
			t.Errorf("%s: %v", w.name, bad)
		}
		if len(d.rec.sinkNS) == 0 || d.counts.events == 0 {
			t.Errorf("%s: the mirror recorded no arrivals or events", w.name)
		}
		if v := checkResults(w, ref); len(v) != 0 && !w.paper {
			t.Errorf("%s: %v", w.name, v)
		}
	}
}

func TestParityDetectsADifference(t *testing.T) {
	r := &scenario.Result{Points: []scenario.Point{singlePoint(100, 0, 100)}}
	r.Points[0].P99Latency = 2e-4
	dp := mirrorPoint{served: 100, generated: 100, totalWatts: 40, p99: 2e-4, allIdle: 0.5}
	if bad := parity([]mirrorPoint{dp}, []*scenario.Result{r}); len(bad) != 0 {
		t.Fatalf("identical point flagged: %v", bad)
	}
	dp.totalWatts = 40.000000001
	if bad := parity([]mirrorPoint{dp}, []*scenario.Result{r}); len(bad) != 1 {
		t.Fatalf("a watts difference in the last digits must fail parity, got %v", bad)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max = %g, want 4", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

// TestRunRejectsBadArguments: usage errors exit non-zero and print no
// result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-memcached", "--trace", "2"},
		{"--workload", "paper-memcached", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, testPaths, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
