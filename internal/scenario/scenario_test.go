package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func quickOpt() experiments.Options {
	return experiments.Options{Duration: 50 * sim.Millisecond, Seed: 1}
}

func ptr[T any](v T) *T { return &v }

func TestJSONRoundTrip(t *testing.T) {
	tick := 250.0
	kern := 2.0
	in := Scenario{
		Name:        "round-trip",
		Description: "desc",
		Config:      "CPC1A",
		DurationMS:  75,
		Seed:        7,
		Workload:    Workload{Service: "memcached", QPS: 12345},
		Server:      Overrides{TimerTickHz: &tick, TickKernelUS: &kern},
		Sweep:       &Sweep{Axis: AxisTickHz, Values: []float64{0, 100, 250}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], in) {
		t.Fatalf("round trip changed the scenario:\n in: %+v\nout: %+v", in, got)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1},"sweeep":{"axis":"qps","values":[1]}}`,
		`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1,"rate":5}}`,
		`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1},"server":{"tick_khz":1}}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("unknown field accepted: %s", c)
		}
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	// Two concatenated objects (not a JSON array): silently dropping the
	// second scenario would be a data-loss bug.
	src := `{"name":"a","config":"CPC1A","workload":{"service":"memcached","qps":1}}
	        {"name":"b","config":"CPC1A","workload":{"service":"memcached","qps":2}}`
	if _, err := Load(strings.NewReader(src)); err == nil {
		t.Error("trailing JSON accepted")
	}
}

func TestLoadArrayForm(t *testing.T) {
	src := `[
	  {"name":"a","config":"Cshallow","workload":{"service":"memcached","qps":1000}},
	  {"name":"b","config":"Cdeep","workload":{"service":"kafka","load":0.08}}
	]`
	got, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("array form parsed wrong: %+v", got)
	}
}

func TestValidate(t *testing.T) {
	ok := Scenario{Name: "ok", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1000}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []Scenario{
		{Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}},    // no name
		{Name: "x", Config: "Cwhat", Workload: Workload{Service: "memcached"}}, // bad config
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "postgres"}},  // bad service
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached"}, Sweep: &Sweep{Axis: "zps", Values: []float64{1}}},
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached"}, Sweep: &Sweep{Axis: AxisQPS}},
		// Axes the service ignores would yield N identical points.
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}, Sweep: &Sweep{Axis: AxisLoad, Values: []float64{0.1, 0.2}}},
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "mysql", Load: 0.1}, Sweep: &Sweep{Axis: AxisQPS, Values: []float64{1000}}},
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "sysbench", Threads: 4}, Sweep: &Sweep{Axis: AxisBurstiness, Values: []float64{2}}},
		// Negative values would panic the scheduler or corrupt histograms.
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}, Sweep: &Sweep{Axis: AxisBatchEpochUS, Values: []float64{-20}}},
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}, Server: Overrides{NetworkLatencyUS: ptr(-5.0)}},
		// Values whose nanoseconds overflow sim.Duration would run as
		// whatever the machine's float conversion makes of them.
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}, Server: Overrides{NetworkLatencyUS: ptr(1e17)}},
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1}, Sweep: &Sweep{Axis: AxisBatchEpochUS, Values: []float64{10, 1e17}}},
		// Fractional thread counts truncate into duplicate points.
		{Name: "x", Config: "CPC1A", Workload: Workload{Service: "sysbench"}, Sweep: &Sweep{Axis: AxisThreads, Values: []float64{4.2, 4.7}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted: %+v", i, sc)
		}
	}
	// An overflowing cluster field is out of range, not negative: on
	// amd64 the unchecked conversion wraps it to MinInt64.
	tor := Scenario{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1},
		Cluster: &Cluster{Servers: 4, Policy: "round_robin", Racks: 2, TorLatencyUS: 1e17}}
	if err := tor.Validate(); err == nil || strings.Contains(err.Error(), "negative") ||
		!strings.Contains(err.Error(), "cluster.tor_latency_us 1e+17 is out of range") {
		t.Errorf("tor_latency_us 1e17: got %v, want an out-of-range error", err)
	}
	// Hz, ms and factor knobs that once loaded and then panicked inside
	// the engine: a tick period of 1e12 s, a window of 1e17 ms, and
	// service times slowed 1e30-fold. Each is rejected by its key.
	mc := Workload{Service: "memcached", QPS: 1000}
	tick := Overrides{TimerTickHz: ptr(1e-12), TickKernelUS: ptr(1.0)}
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Server: tick}, "server.timer_tick_hz 1e-12 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Server: Overrides{TickKernelUS: ptr(1.0)},
			Sweep: &Sweep{Axis: AxisTickHz, Values: []float64{100, 1e-12}}}, "tick_hz value 1e-12 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Server: Overrides{TimerTickHz: ptr(2e9), TickKernelUS: ptr(1.0)}},
			"server.timer_tick_hz 2e+09 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, DurationMS: 1e17}, "duration_ms 1e+17 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Cluster: &Cluster{Servers: 2, Policy: "round_robin",
			Faults: &Faults{BrownoutMTBFUS: 5000, BrownoutDurationUS: 5000, BrownoutFactor: 1e30}}},
			"faults.brownout_factor 1e+30 is above the ceiling 1000"},
		// Delays that fit int64 on their own but not once added to now:
		// a doubled retry timeout and a hedge delay, both beyond the
		// engine's horizon, and the same timeout as a sweep value.
		{Scenario{Name: "x", Config: "CPC1A", DurationMS: 20, Workload: Workload{Service: "memcached", QPS: 200000},
			Cluster: &Cluster{Servers: 4, Policy: "round_robin",
				Faults: &Faults{MTBFUS: 2000, MTTRUS: 1000, RequestTimeoutUS: 5e15, MaxRetries: 2}}},
			"cluster.faults.request_timeout_us 5e+15 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Cluster: &Cluster{Servers: 2, Policy: "round_robin",
			Faults: &Faults{HedgeDelayUS: 9.22337203685e15}}},
			"cluster.faults.hedge_delay_us 9.22337203685e+15 is out of range"},
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Cluster: &Cluster{Servers: 2, Policy: "round_robin",
			Faults: &Faults{MTBFUS: 2000, MTTRUS: 1000}},
			Sweep: &Sweep{Axis: AxisRequestTimeout, Values: []float64{100, 5e15}}},
			"request_timeout_us value 5e+15 is out of range"},
		// Under a sweep of the same knob, a server override's failure
		// is the override's, not the sweep value's.
		{Scenario{Name: "x", Config: "CPC1A", Workload: mc, Server: Overrides{TickKernelUS: ptr(1.0)},
			Cluster: &Cluster{Servers: 2, Policy: "round_robin",
				ServerOverrides: map[string]Overrides{"1": {TimerTickHz: ptr(1e-12)}}},
			Sweep: &Sweep{Axis: AxisTickHz, Values: []float64{100}}},
			`[tick_hz=100]: cluster.server_overrides[1]: server.timer_tick_hz 1e-12 is out of range`},
	} {
		if err := c.sc.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got %v, want an error containing %q", err, c.want)
		}
	}
	// The ceilings themselves still load, the horizon's included: a
	// timeout just inside it and a tick period as long.
	for _, sc := range []Scenario{
		{Name: "x", Config: "CPC1A", Workload: mc, Cluster: &Cluster{Servers: 2, Policy: "round_robin",
			Faults: &Faults{RequestTimeoutUS: 4.6e15, MaxRetries: 2}}},
		{Name: "x", Config: "CPC1A", Workload: mc, Server: Overrides{TimerTickHz: ptr(2.2e-10), TickKernelUS: ptr(1.0)}},
		{Name: "x", Config: "CPC1A", Workload: mc, Server: Overrides{TimerTickHz: ptr(1e9), TickKernelUS: ptr(1.0)}},
		{Name: "x", Config: "CPC1A", Workload: mc, Cluster: &Cluster{Servers: 2, Policy: "round_robin",
			Faults: &Faults{BrownoutMTBFUS: 5000, BrownoutDurationUS: 5000, BrownoutFactor: 1000}}},
	} {
		if err := sc.Validate(); err != nil {
			t.Errorf("a knob at its ceiling was rejected: %v", err)
		}
	}
}

func TestRunRejectsBadPoints(t *testing.T) {
	// Rate never supplied: neither the workload nor the sweep sets QPS.
	sc := Scenario{Name: "norate", Config: "CPC1A", Workload: Workload{Service: "memcached"}}
	if _, err := sc.Run(quickOpt()); err == nil {
		t.Error("memcached without qps/util accepted")
	}
	// Ticks enabled without a tick cost.
	hz := 250.0
	sc = Scenario{Name: "ticks", Config: "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 1000},
		Server:   Overrides{TimerTickHz: &hz}}
	const tickMsg = `scenario "ticks": timer_tick_hz needs tick_kernel_us > 0`
	if _, err := sc.Run(quickOpt()); err == nil || err.Error() != tickMsg {
		t.Errorf("timer_tick_hz without tick_kernel_us: got %v, want %q", err, tickMsg)
	}
	// Closed-loop sysbench runs on the single machine too, and gets the
	// same check.
	sc.Workload = Workload{Service: "sysbench", Threads: 4}
	if _, err := sc.Run(quickOpt()); err == nil || err.Error() != tickMsg {
		t.Errorf("sysbench timer_tick_hz without tick_kernel_us: got %v, want %q", err, tickMsg)
	}
	// The same scenario is fine once the sweep supplies the rate.
	sc = Scenario{Name: "sweptrate", Config: "CPC1A",
		Workload: Workload{Service: "memcached"},
		Sweep:    &Sweep{Axis: AxisQPS, Values: []float64{1000, 2000}}}
	if _, err := sc.Run(quickOpt()); err != nil {
		t.Errorf("sweep-supplied qps rejected: %v", err)
	}
}

// TestRunWindowWithinHorizon: a run window from the caller's options,
// not only duration_ms, must end by the engine's horizon, or a delay
// the point arms late in the run could wrap its time.
func TestRunWindowWithinHorizon(t *testing.T) {
	sc := Scenario{Name: "x", Config: "CPC1A", Workload: Workload{Service: "memcached", QPS: 1000}}
	_, err := sc.Run(experiments.Options{Duration: sim.Horizon, Seed: 1})
	if want := "run window 4611686018.427s must end within the engine's horizon"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("got %v, want an error containing %q", err, want)
	}
}

// TestScenarioMatchesHandWiredRun is the bit-for-bit contract: a
// scenario with no overrides must reproduce exactly what the canonical
// hand-wired (runPoint-style) assembly measures — same warmup, same
// window, same seed, same event sequence.
func TestScenarioMatchesHandWiredRun(t *testing.T) {
	opt := quickOpt()
	const qps = 20000

	// Hand-wired: the sequence internal/experiments.runPoint uses — a
	// one-member round_robin fleet, seeded on the server and the fleet.
	scfg := server.DefaultConfig()
	scfg.Seed = opt.Seed
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(soc.Cshallow), Server: scfg}},
	}, workload.Memcached(qps), opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := f.Server(0)
	f.Run(opt.Warmup())
	snap := srv.System().Meter.Snapshot()
	f.Run(opt.Duration)
	wantMean := srv.Latencies().Mean()
	wantP99 := srv.Latencies().Quantile(0.99)
	wantServed := srv.Served()
	wantSoC := snap.AveragePower(power.Package)
	wantTotal := snap.AverageTotal()

	sc := Scenario{Name: "parity", Config: "Cshallow",
		Workload: Workload{Service: "memcached", QPS: qps}}
	res, err := sc.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.MeanLatency != wantMean || p.P99Latency != wantP99 {
		t.Errorf("latency mismatch: scenario (%v, %v) vs hand-wired (%v, %v)",
			p.MeanLatency, p.P99Latency, wantMean, wantP99)
	}
	if p.Served != wantServed {
		t.Errorf("served %d vs hand-wired %d", p.Served, wantServed)
	}
	if p.SoCWatts != wantSoC || p.TotalWatts != wantTotal {
		t.Errorf("power mismatch: scenario (%v, %v) vs hand-wired (%v, %v)",
			p.SoCWatts, p.TotalWatts, wantSoC, wantTotal)
	}
}

// TestScenarioSerialParallelBitIdentical extends the sweep determinism
// contract to the declarative layer.
func TestScenarioSerialParallelBitIdentical(t *testing.T) {
	sc := Scenario{Name: "det", Config: "CPC1A",
		Workload: Workload{Service: "memcached"},
		Sweep:    &Sweep{Axis: AxisQPS, Values: []float64{4000, 20000, 50000}}}
	serial, parallel := quickOpt(), quickOpt()
	parallel.Parallelism = 4
	a, err := sc.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("serial and parallel scenario runs differ")
	}
}

// TestSweepAxesApply spot-checks that each server-side axis actually
// moves the knob it names.
func TestSweepAxesApply(t *testing.T) {
	opt := quickOpt()
	sc := Scenario{Name: "epochs", Config: "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 50000},
		Sweep:    &Sweep{Axis: AxisBatchEpochUS, Values: []float64{0, 100}}}
	res, err := sc.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	off, on := res.Points[0], res.Points[1]
	if on.MeanLatency <= off.MeanLatency {
		t.Errorf("100us batching should raise mean latency: %v vs %v", on.MeanLatency, off.MeanLatency)
	}
	if on.AllIdle <= off.AllIdle {
		t.Errorf("batching should raise all-idle time: %v vs %v", on.AllIdle, off.AllIdle)
	}

	sc = Scenario{Name: "sysbench", Config: "CPC1A",
		Workload: Workload{Service: "sysbench", ThinkMS: 2},
		Sweep:    &Sweep{Axis: AxisThreads, Values: []float64{4, 64}}}
	res, err = sc.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].Served <= res.Points[0].Served {
		t.Errorf("64 threads should serve more than 4: %d vs %d",
			res.Points[1].Served, res.Points[0].Served)
	}
	lo, hi := res.Points[0].PC1AResidency, res.Points[1].PC1AResidency
	if lo == nil || hi == nil {
		t.Fatal("CPC1A points should carry PC1A residency")
	}
	if *hi >= *lo {
		t.Errorf("more concurrency should erode PC1A: %v vs %v", *hi, *lo)
	}
}

// TestResultArtifacts checks the uniform output surface: report, CSV and
// JSON.
func TestResultArtifacts(t *testing.T) {
	sc := Scenario{Name: "artifacts", Config: "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 10000}}
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	var r experiments.Result = res
	if !strings.Contains(r.Report(), "artifacts") {
		t.Error("report missing scenario name")
	}
	var sb strings.Builder
	var cw experiments.CSVWriter = res
	if err := cw.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "axis,axis_label,workload") {
		t.Errorf("csv shape wrong: %q", sb.String())
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario.Name != "artifacts" || len(back.Points) != 1 {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
	if back.Points[0].PC1AResidency == nil {
		t.Error("CPC1A point lost its PC1A residency in JSON")
	}

	// On a config without an APMU the PC1A fields must be absent, not 0.
	shallow := Scenario{Name: "no-apmu", Config: "Cshallow",
		Workload: Workload{Service: "memcached", QPS: 10000}}
	sres, err := shallow.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if sres.Points[0].PC1AResidency != nil || sres.Points[0].PC1AEntries != nil {
		t.Error("Cshallow point should have nil PC1A fields")
	}
	data, err = json.Marshal(sres)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "pc1a") {
		t.Errorf("Cshallow JSON should omit pc1a keys: %s", data)
	}
}
