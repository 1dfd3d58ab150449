package scenario

import (
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/server"
)

// runArtifacts renders the full output surface of one scenario run so
// bit-identity tests can compare everything at once.
func runArtifacts(t *testing.T, sc Scenario, opt experiments.Options) (report, csv string) {
	t.Helper()
	res, err := sc.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return res.Report(), b.String()
}

// TestClusterSingleServerParity is the acceptance criterion that pins
// the cluster layer as a strict generalization of the single machine: a
// 1-server round_robin fleet must produce byte-identical report and CSV
// output to the equivalent single-server scenario — same name, same
// workload, same config, the only difference being the cluster block.
func TestClusterSingleServerParity(t *testing.T) {
	single := Scenario{
		Name:     "parity",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 20000},
	}
	fleet := single
	fleet.Cluster = &Cluster{Servers: 1, Policy: "round_robin"}

	opt := quickOpt()
	sRep, sCSV := runArtifacts(t, single, opt)
	fRep, fCSV := runArtifacts(t, fleet, opt)
	if sRep != fRep {
		t.Errorf("reports differ:\nsingle:\n%s\nfleet:\n%s", sRep, fRep)
	}
	if sCSV != fCSV {
		t.Errorf("CSV differs:\nsingle:\n%s\nfleet:\n%s", sCSV, fCSV)
	}
}

// TestClusterParityWithOverridesAndSweep extends the parity contract to
// a swept, overridden scenario: timer ticks armed, a QPS sweep — every
// feature of the single-machine path must survive the fleet wrapping
// unchanged.
func TestClusterParityWithOverridesAndSweep(t *testing.T) {
	tick := 250.0
	tickK := 2.0
	single := Scenario{
		Name:     "parity-swept",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached-bursty", QPS: 10000, Burstiness: 4},
		Server:   Overrides{TimerTickHz: &tick, TickKernelUS: &tickK},
		Sweep:    &Sweep{Axis: AxisQPS, Values: []float64{5000, 20000}},
	}
	fleet := single
	fleet.Cluster = &Cluster{Servers: 1, Policy: "round_robin"}

	opt := quickOpt()
	sRep, sCSV := runArtifacts(t, single, opt)
	fRep, fCSV := runArtifacts(t, fleet, opt)
	if sRep != fRep || sCSV != fCSV {
		t.Errorf("swept parity broken:\nsingle report:\n%s\nfleet report:\n%s", sRep, fRep)
	}
}

func clusterSweepScenario() Scenario {
	return Scenario{
		Name:     "fleet-scaling",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 40000},
		Cluster:  &Cluster{Policy: "power_aware", P99TargetUS: 300},
		Sweep:    &Sweep{Axis: AxisServers, Values: []float64{1, 2, 4}},
	}
}

// TestClusterSerialParallelBitIdentical extends the PR 1 determinism
// contract to fleets: a servers sweep fans out through the same worker
// pool as every other sweep, and the artifacts must not depend on the
// parallelism setting.
func TestClusterSerialParallelBitIdentical(t *testing.T) {
	serial, parallel := quickOpt(), quickOpt()
	serial.Parallelism = 1
	parallel.Parallelism = 8
	sRep, sCSV := runArtifacts(t, clusterSweepScenario(), serial)
	pRep, pCSV := runArtifacts(t, clusterSweepScenario(), parallel)
	if sRep != pRep || sCSV != pCSV {
		t.Error("fleet sweep artifacts depend on parallelism")
	}
}

// TestClusterRepeatedSeedIdentical: same seed, same fleet trace.
func TestClusterRepeatedSeedIdentical(t *testing.T) {
	aRep, aCSV := runArtifacts(t, clusterSweepScenario(), quickOpt())
	bRep, bCSV := runArtifacts(t, clusterSweepScenario(), quickOpt())
	if aRep != bRep || aCSV != bCSV {
		t.Error("repeated fleet runs with one seed differ")
	}
}

// TestClusterPolicySweep exercises the string-valued axis end to end:
// three policies, labels in the report and CSV, per-server breakdowns
// for the multi-server points.
func TestClusterPolicySweep(t *testing.T) {
	sc := Scenario{
		Name:     "policy-duel",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 40000},
		Cluster:  &Cluster{Servers: 4, P99TargetUS: 300},
		Sweep:    &Sweep{Axis: AxisPolicy, Policies: []string{"round_robin", "least_loaded", "power_aware"}},
	}
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("want 3 policy points, got %d", len(res.Points))
	}
	for i, want := range []string{"round_robin", "least_loaded", "power_aware"} {
		p := res.Points[i]
		if p.AxisLabel != want || p.Axis != float64(i) {
			t.Errorf("point %d: axis %g label %q, want %d %q", i, p.Axis, p.AxisLabel, i, want)
		}
		if len(p.Servers) != 4 {
			t.Errorf("point %d: missing per-server breakdown", i)
		}
	}
	rep := res.Report()
	for _, want := range []string{"power_aware", "per-server", "4-server fleet"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	// The physics the sweep exists to show: packing beats spreading on
	// fleet power at light load.
	rr, pa := res.Points[0], res.Points[2]
	if pa.TotalWatts >= rr.TotalWatts {
		t.Errorf("power_aware (%.1fW) should beat round_robin (%.1fW) on fleet watts",
			pa.TotalWatts, rr.TotalWatts)
	}
}

// TestClusterPerServerOverrides routes a heterogeneous fleet: server 1
// gets a noisy ticky kernel, and its PC1A residency must suffer for it.
func TestClusterPerServerOverrides(t *testing.T) {
	tick := 1000.0
	tickK := 5.0
	sc := Scenario{
		Name:     "het-fleet",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 20000},
		Cluster: &Cluster{
			Servers: 2, Policy: "round_robin",
			ServerOverrides: map[string]Overrides{
				"1": {TimerTickHz: &tick, TickKernelUS: &tickK},
			},
		},
	}
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	servers := res.Points[0].Servers
	if len(servers) != 2 {
		t.Fatalf("want 2 per-server stats, got %d", len(servers))
	}
	quiet, noisy := servers[0], servers[1]
	if quiet.PC1AResidency == nil || noisy.PC1AResidency == nil {
		t.Fatal("missing PC1A stats")
	}
	if *noisy.PC1AResidency >= *quiet.PC1AResidency {
		t.Errorf("ticky server should lose PC1A residency: quiet %.3f, noisy %.3f",
			*quiet.PC1AResidency, *noisy.PC1AResidency)
	}
}

func TestClusterValidation(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:     "v",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached", QPS: 1000},
			Cluster:  &Cluster{Servers: 2, Policy: "round_robin"},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero servers", func(s *Scenario) { s.Cluster.Servers = 0 }},
		{"bad policy", func(s *Scenario) { s.Cluster.Policy = "weighted" }},
		{"power_aware without target", func(s *Scenario) { s.Cluster.Policy = "power_aware" }},
		{"negative target", func(s *Scenario) { s.Cluster.P99TargetUS = -1 }},
		{"sysbench fleet", func(s *Scenario) {
			s.Workload = Workload{Service: "sysbench", Threads: 4}
		}},
		{"bad override key", func(s *Scenario) {
			s.Cluster.ServerOverrides = map[string]Overrides{"x": {}}
		}},
		{"zero-padded override key", func(s *Scenario) {
			s.Cluster.ServerOverrides = map[string]Overrides{"01": {}}
		}},
		{"negative override", func(s *Scenario) {
			bad := -1.0
			s.Cluster.ServerOverrides = map[string]Overrides{"0": {KernelOverheadUS: &bad}}
		}},
		{"servers axis without cluster", func(s *Scenario) {
			s.Cluster = nil
			s.Sweep = &Sweep{Axis: AxisServers, Values: []float64{1, 2}}
		}},
		{"policy axis with values", func(s *Scenario) {
			s.Cluster.Policy = ""
			s.Sweep = &Sweep{Axis: AxisPolicy, Values: []float64{1}, Policies: []string{"round_robin"}}
		}},
		{"policy axis with fixed policy", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisPolicy, Policies: []string{"round_robin"}}
		}},
		{"policies on numeric axis", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisQPS, Values: []float64{1000}, Policies: []string{"round_robin"}}
		}},
		{"unknown swept policy", func(s *Scenario) {
			s.Cluster.Policy = ""
			s.Sweep = &Sweep{Axis: AxisPolicy, Policies: []string{"weighted"}}
		}},
		{"fractional servers value", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisServers, Values: []float64{1.5}}
		}},
		{"servers value below 1", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisServers, Values: []float64{0}}
		}},
		{"sub-nanosecond target", func(s *Scenario) {
			// 0.0001 µs rounds to a zero target, which the cluster rejects.
			s.Cluster.Policy, s.Cluster.P99TargetUS = "power_aware", 0.0001
		}},
	}
	for _, c := range cases {
		sc := base()
		c.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}

	// Out-of-range override indices are a per-point error (the fleet
	// size may come from the sweep), caught by Run.
	sc := base()
	sc.Cluster.ServerOverrides = map[string]Overrides{"5": {}}
	if err := sc.Validate(); err != nil {
		t.Errorf("index-range check should wait for Run: %v", err)
	}
	if _, err := sc.Run(quickOpt()); err == nil ||
		!strings.Contains(err.Error(), "only 2 servers") {
		t.Errorf("Run should reject out-of-range override index, got %v", err)
	}

	// Load checks every point's servers: an override index beyond a
	// swept fleet size fails there, not only in Run.
	src := `{"name": "v", "config": "CPC1A", "workload": {"service": "memcached", "qps": 1000},
	  "cluster": {"servers": 2, "policy": "round_robin", "server_overrides": {"3": {}}},
	  "sweep": {"axis": "servers", "values": [2, 4]}}`
	if _, err := Load(strings.NewReader(src)); err == nil ||
		!strings.Contains(err.Error(), "server_overrides[3]: fleet has only 2 servers") {
		t.Errorf("Load should reject override index 3 on the 2-server point, got %v", err)
	}
}

// TestOverridesValidateReportsFirstDeclaredField locks the validation
// error's determinism: with several negative knobs, the one reported
// follows Overrides' declared field order on every run (apply converts
// the knobs in that order, one straight-line call each — the apcvet
// determinism pass rejects error text born from map iteration). The
// check is the conversion itself, apply.
func TestOverridesValidateReportsFirstDeclaredField(t *testing.T) {
	bad := -1.0
	o := Overrides{
		NetworkLatencyUS: &bad,
		KernelOverheadUS: &bad,
		TickKernelUS:     &bad,
	}
	err := o.apply(new(server.Config))
	if err == nil {
		t.Fatal("negative overrides must not validate")
	}
	if want := "server.network_latency_us"; !strings.Contains(err.Error(), want) {
		t.Fatalf("apply reported %q; want the first declared field (%q)", err, want)
	}
}
