package scenario

import (
	"strings"
	"testing"
)

func faultScenario() Scenario {
	return Scenario{
		Name:     "faults",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached-bursty", QPS: 150000, Burstiness: 8},
		Cluster: &Cluster{
			Servers: 4, Racks: 2, TorLatencyUS: 5,
			Policy: "rack_power_aware", P99TargetUS: 300,
		},
	}
}

// TestFaultsZeroParity is the tentpole's acceptance parity lock at the
// scenario layer: an all-zero "faults": {} block must render
// byte-identical reports and CSV to a scenario that never mentions
// faults — i.e. to the fault-free fleet the layer shipped with.
func TestFaultsZeroParity(t *testing.T) {
	plain := faultScenario()
	zeroed := faultScenario()
	zeroed.Cluster.Faults = &Faults{}

	opt := quickOpt()
	pRep, pCSV := runArtifacts(t, plain, opt)
	zRep, zCSV := runArtifacts(t, zeroed, opt)
	if pRep != zRep {
		t.Errorf("zero-valued faults block changed the report:\nplain:\n%s\nzeroed:\n%s", pRep, zRep)
	}
	if pCSV != zCSV {
		t.Errorf("zero-valued faults block changed the CSV:\nplain:\n%s\nzeroed:\n%s", pCSV, zCSV)
	}
}

// TestFaultSweepEndToEnd drives the mtbf_us axis through the whole
// stack: crashes must occur and be survived (retries, goodput), the
// conservation invariant must hold per point, and both artifacts must
// carry the fault tables.
func TestFaultSweepEndToEnd(t *testing.T) {
	sc := faultScenario()
	sc.Cluster.Faults = &Faults{
		MTTRUS:           2000,
		RequestTimeoutUS: 2000,
		MaxRetries:       2,
	}
	sc.Sweep = &Sweep{Axis: AxisMTBF, Values: []float64{0, 5000}}
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(res.Points))
	}
	for _, p := range res.Points {
		if got := p.OK + p.Failed + p.Shed; got != p.Generated {
			t.Errorf("mtbf=%g: OK %d + Failed %d + Shed %d = %d, want Generated %d",
				p.Axis, p.OK, p.Failed, p.Shed, got, p.Generated)
		}
	}
	calm, stormy := res.Points[0], res.Points[1]
	if calm.Crashes != 0 {
		t.Errorf("mtbf=0 point crashed %d times", calm.Crashes)
	}
	if stormy.Crashes == 0 {
		t.Error("mtbf=5ms point never crashed — injection inert through the scenario layer")
	}
	if stormy.Retried == 0 {
		t.Error("crashes with a retry budget produced no retries")
	}
	if stormy.GoodputQPS <= 0 {
		t.Error("no goodput under faults")
	}

	rep := res.Report()
	if !strings.Contains(rep, "\nfaults:\n") {
		t.Error("report is missing the faults table")
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "goodput_qps,ok,failed,retried") {
		t.Error("CSV is missing the faults table")
	}
}

// TestFaultSweepPointsDoNotAlias locks the clone-before-mutate contract
// for fault axes: applying a point must not write through to the
// original scenario's faults block.
func TestFaultSweepPointsDoNotAlias(t *testing.T) {
	sc := faultScenario()
	sc.Cluster.Faults = &Faults{MTTRUS: 2000}
	sc.Sweep = &Sweep{Axis: AxisMTBF, Values: []float64{5000}}
	pt := sc.at(AxisMTBF, 5000)
	if pt.Cluster.Faults.MTBFUS != 5000 {
		t.Fatalf("applied point has mtbf_us %g, want 5000", pt.Cluster.Faults.MTBFUS)
	}
	if sc.Cluster.Faults.MTBFUS != 0 {
		t.Errorf("at() wrote through to the original faults block (mtbf_us %g)", sc.Cluster.Faults.MTBFUS)
	}
}

// TestFaultValidation rejects incoherent and silently-inert faults
// blocks at load time, before any simulation runs.
func TestFaultValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"negative mtbf", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MTBFUS: -1}
		}, "negative cluster.faults.mtbf_us"},
		{"negative retries", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MaxRetries: -1}
		}, "negative cluster.faults.max_retries"},
		{"mtbf without mttr", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MTBFUS: 5000}
		}, "needs mttr_us > 0"},
		{"inert mttr", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MTTRUS: 5000}
		}, "needs mtbf_us > 0"},
		{"brownout without factor", func(s *Scenario) {
			s.Cluster.Faults = &Faults{BrownoutMTBFUS: 5000, BrownoutDurationUS: 100}
		}, "brownout_factor > 1"},
		{"inert brownout factor", func(s *Scenario) {
			s.Cluster.Faults = &Faults{BrownoutFactor: 2}
		}, "need brownout_mtbf_us > 0"},
		{"partition on flat fleet", func(s *Scenario) {
			s.Cluster.Racks, s.Cluster.TorLatencyUS = 0, 0
			s.Cluster.Faults = &Faults{TorPartitionMTBFUS: 5000, TorPartitionDurationUS: 100}
		}, "needs racks > 1"},
		{"inert partition duration", func(s *Scenario) {
			s.Cluster.Faults = &Faults{TorPartitionDurationUS: 100}
		}, "needs tor_partition_mtbf_us > 0"},
		{"inert retries", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MaxRetries: 3}
		}, "nothing would ever retry"},
		{"fault axis without block", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisMTBF, Values: []float64{0, 5000}}
		}, "needs a cluster.faults block"},
		{"mtbf axis without mttr", func(s *Scenario) {
			s.Cluster.Faults = &Faults{}
			s.Sweep = &Sweep{Axis: AxisMTBF, Values: []float64{0, 5000}}
		}, "needs mttr_us > 0"},
		{"mttr axis without mtbf", func(s *Scenario) {
			s.Cluster.Faults = &Faults{}
			s.Sweep = &Sweep{Axis: AxisMTTR, Values: []float64{1000}}
		}, "needs cluster.faults.mtbf_us > 0"},
		{"mttr axis value zero", func(s *Scenario) {
			s.Cluster.Faults = &Faults{MTBFUS: 5000}
			s.Sweep = &Sweep{Axis: AxisMTTR, Values: []float64{0, 1000}}
		}, "never ends"},
		{"fractional retries axis value", func(s *Scenario) {
			s.Cluster.Faults = &Faults{RequestTimeoutUS: 1000}
			s.Sweep = &Sweep{Axis: AxisMaxRetries, Values: []float64{1.5}}
		}, "not an integer"},
		{"retries axis with nothing to trigger it", func(s *Scenario) {
			s.Cluster.Faults = &Faults{}
			s.Sweep = &Sweep{Axis: AxisMaxRetries, Values: []float64{0, 2}}
		}, "nothing would ever retry"},
		{"sub-nanosecond mttr", func(s *Scenario) {
			// The repair time rounds to 0 ns, so the cluster's own rule
			// must fire at load, not as a panic mid-run.
			s.Cluster.Faults = &Faults{MTBFUS: 5000, MTTRUS: 0.0001}
		}, "needs mttr_us > 0"},
		{"racks axis spanning flat with partitions", func(s *Scenario) {
			s.Cluster.Racks, s.Cluster.TorLatencyUS = 0, 5
			s.Cluster.Faults = &Faults{TorPartitionMTBFUS: 5000, TorPartitionDurationUS: 100}
			s.Sweep = &Sweep{Axis: AxisRacks, Values: []float64{1, 2}}
		}, "no ToR uplink to cut"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := faultScenario()
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("validation passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	// And the well-formed variants must pass.
	ok := faultScenario()
	ok.Cluster.Faults = &Faults{
		MTBFUS: 50000, MTTRUS: 2000,
		BrownoutMTBFUS: 100000, BrownoutDurationUS: 5000, BrownoutFactor: 4,
		TorPartitionMTBFUS: 200000, TorPartitionDurationUS: 10000,
		RequestTimeoutUS: 2000, MaxRetries: 2, HedgeDelayUS: 500,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("full faults block rejected: %v", err)
	}
	empty := faultScenario()
	empty.Cluster.Faults = &Faults{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty faults block rejected: %v", err)
	}
}
