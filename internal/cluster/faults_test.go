package cluster

import (
	"reflect"
	"strings"
	"testing"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// faultFleet assembles the standard fault-test fleet: the drain-test
// topology (bursty 2×2 racked) with the given fault configuration.
func faultFleet(t *testing.T, pol Policy, fc FaultConfig, hold, epoch sim.Duration) *Fleet {
	t.Helper()
	fl, err := New(Config{
		Policy:        pol,
		P99Target:     300 * sim.Microsecond,
		Topology:      Topology{Racks: 2, ServersPerRack: 2},
		TorLatency:    5 * sim.Microsecond,
		DrainHold:     hold,
		FeedbackEpoch: epoch,
		Faults:        fc,
		Members:       uniformMembers(4, soc.CPC1A),
	}, workload.MemcachedBursty(150000, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestFaultConfigValidation(t *testing.T) {
	spec := workload.Memcached(50000)
	base := func() Config {
		return Config{Policy: RoundRobin, Members: uniformMembers(2, soc.CPC1A)}
	}
	cases := []struct {
		name string
		fc   FaultConfig
	}{
		{"negative MTBF", FaultConfig{MTBF: -1, MTTR: 1}},
		{"MTBF without MTTR", FaultConfig{MTBF: sim.Millisecond}},
		{"negative MaxRetries", FaultConfig{MaxRetries: -1}},
		{"brownout without duration", FaultConfig{BrownoutMTBF: sim.Millisecond, BrownoutFactor: 2}},
		{"brownout factor below 1", FaultConfig{BrownoutMTBF: sim.Millisecond,
			BrownoutDuration: sim.Millisecond, BrownoutFactor: 0.5}},
		{"partition without duration", FaultConfig{TorPartitionMTBF: sim.Millisecond}},
		{"partition on flat fleet", FaultConfig{TorPartitionMTBF: sim.Millisecond,
			TorPartitionDuration: sim.Millisecond}},
	}
	for _, tc := range cases {
		cfg := base()
		cfg.Faults = tc.fc
		if _, err := New(cfg, spec, 1); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// The same partition config is valid on a racked fleet.
	cfg := base()
	cfg.Topology = Topology{Racks: 2, ServersPerRack: 1}
	cfg.TorLatency = 5 * sim.Microsecond
	cfg.Faults = FaultConfig{TorPartitionMTBF: sim.Millisecond, TorPartitionDuration: sim.Millisecond}
	if _, err := New(cfg, spec, 1); err != nil {
		t.Errorf("racked partition config rejected: %v", err)
	}
}

// TestFaultsDisabledAttachesNothing pins the parity mechanism: a zero
// FaultConfig must leave Fleet.flt nil, so routing takes the PR 5 path.
func TestFaultsDisabledAttachesNothing(t *testing.T) {
	fl := drainFleet(t, PowerAware, 500*sim.Microsecond, 0)
	if fl.flt != nil {
		t.Fatal("zero FaultConfig attached a fault layer")
	}
	if (FaultConfig{}).Enabled() {
		t.Fatal("zero FaultConfig reports Enabled")
	}
}

// TestCrashNeverRoutedAndRecovers is the availability property test:
// requests are never assigned to a crashed (or cut) member, crashed
// members' in-flight requests are retried, and every admitted arrival
// resolves exactly one way — ok, failed or shed.
func TestCrashNeverRoutedAndRecovers(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, PowerAware, RackPowerAware} {
		fl := faultFleet(t, pol, FaultConfig{
			MTBF:           5 * sim.Millisecond,
			MTTR:           2 * sim.Millisecond,
			RequestTimeout: 2 * sim.Millisecond,
			MaxRetries:     2,
		}, 0, 0)
		fl.testOnRoute = func(m *member) {
			if !m.alive() {
				t.Errorf("%v: routed to a dead member (down %v, cut %v)", pol, m.down, m.cut)
			}
		}
		m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
		if m.Crashes == 0 {
			t.Fatalf("%v: no crashes injected — property test is vacuous", pol)
		}
		if m.Retried == 0 {
			t.Errorf("%v: crashes lost no in-flight requests to retry", pol)
		}
		if m.OK == 0 || m.GoodputQPS == 0 {
			t.Errorf("%v: fleet produced no goodput under crashes", pol)
		}
		if m.RecoveryP99 == 0 {
			t.Errorf("%v: retried requests succeeded but recovery quantiles are empty", pol)
		}
		if got := m.OK + m.Failed + m.Shed; got != m.Generated {
			t.Errorf("%v: ok %d + failed %d + shed %d = %d, want generated %d — requests leaked",
				pol, m.OK, m.Failed, m.Shed, got, m.Generated)
		}
	}
}

// TestCrashReleasesDrainHold locks the ISSUE's drain interaction: a
// held member that crashes releases its hold immediately, and the
// now-stale hold-expiry event is discarded by the hold-start stamp.
func TestCrashReleasesDrainHold(t *testing.T) {
	const hold = 5 * sim.Millisecond
	// MTBF far beyond the test horizon: the crash below is injected by
	// hand, and the repair it schedules draws from the real MTTR.
	fl := faultFleet(t, PowerAware, FaultConfig{
		MTBF: 1000 * sim.Second,
		MTTR: sim.Millisecond,
	}, hold, 0)
	fs := fl.flt
	m := fl.members[3]

	// Drain the empty member: it holds immediately, expiry in one hold.
	fl.drainMember(m)
	if m.state != stHeld {
		t.Fatalf("empty member did not hold (state %d)", m.state)
	}
	start := m.holdStart

	// Crash it mid-hold: the hold must be released (state active, so the
	// repaired member is routable the instant repair lands); the pending
	// expiry is discarded at fire time by the hold-start stamp.
	fl.eng.Run(fl.eng.Now() + hold/2)
	fs.crash(m)
	if m.state != stActive || !m.down {
		t.Fatalf("crash did not release the hold (state %d, down %v)", m.state, m.down)
	}

	// Re-drain after the crash (as the controller may) and let the STALE
	// expiry fire: the member must stay held until its OWN hold elapses.
	m.down = false
	fl.drainMember(m)
	if m.state != stHeld {
		t.Fatalf("re-drain did not hold (state %d)", m.state)
	}
	if m.holdStart == start {
		t.Fatal("re-drain did not restamp the hold start — the stale expiry would fire as genuine")
	}
	fl.eng.Run(fl.eng.Now() + hold*3/4) // past the first expiry, before the second
	if m.state != stHeld {
		t.Errorf("stale hold expiry re-activated the member early (state %d)", m.state)
	}
	fl.eng.Run(fl.eng.Now() + hold)
	if m.state != stActive {
		t.Errorf("second hold never expired (state %d)", m.state)
	}
}

// TestBrownoutDegradesLatency checks a brownout does what it claims:
// the same fleet with brownout injection has strictly worse mean
// latency than without, and the brownout counters surface it.
func TestBrownoutDegradesLatency(t *testing.T) {
	run := func(fc FaultConfig) Measurement {
		fl := faultFleet(t, RoundRobin, fc, 0, 0)
		return fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	}
	base := run(FaultConfig{RequestTimeout: 50 * sim.Millisecond})
	degraded := run(FaultConfig{
		RequestTimeout:   50 * sim.Millisecond,
		BrownoutMTBF:     2 * sim.Millisecond,
		BrownoutDuration: sim.Millisecond,
		BrownoutFactor:   8,
	})
	if degraded.Brownouts == 0 {
		t.Fatal("no brownouts injected — comparison is vacuous")
	}
	if base.Brownouts != 0 {
		t.Fatal("baseline saw brownouts")
	}
	if degraded.MeanLatency <= base.MeanLatency {
		t.Errorf("brownouts did not degrade mean latency: %v <= %v",
			degraded.MeanLatency, base.MeanLatency)
	}
}

// TestPartitionCutsRackAndHeals: ToR partitions only hit non-local
// racks, cut members take no traffic while partitioned, and the fleet
// keeps producing goodput through retries.
func TestPartitionCutsRackAndHeals(t *testing.T) {
	fl := faultFleet(t, RackPowerAware, FaultConfig{
		TorPartitionMTBF:     10 * sim.Millisecond,
		TorPartitionDuration: 2 * sim.Millisecond,
		RequestTimeout:       2 * sim.Millisecond,
		MaxRetries:           2,
	}, 0, 0)
	fl.testOnRoute = func(m *member) {
		if !m.alive() {
			t.Errorf("routed to a cut member (rack %d)", m.rack)
		}
	}
	m := fl.Measure(5*sim.Millisecond, 80*sim.Millisecond)
	if m.Partitions == 0 {
		t.Fatal("no partitions injected — property test is vacuous")
	}
	if len(m.Racks) != 2 {
		t.Fatalf("expected 2 rack zones, got %d", len(m.Racks))
	}
	if m.Racks[0].Partitions != 0 {
		t.Errorf("local rack 0 was partitioned %d times", m.Racks[0].Partitions)
	}
	if m.Racks[1].Partitions != m.Partitions {
		t.Errorf("rack partition counts (%d) do not sum to the fleet's (%d)",
			m.Racks[1].Partitions, m.Partitions)
	}
	if m.OK == 0 {
		t.Error("no goodput under partitions")
	}
	if got := m.OK + m.Failed + m.Shed; got != m.Generated {
		t.Errorf("ok+failed+shed %d != generated %d", got, m.Generated)
	}
}

// TestTimeoutExhaustsRetryBudget: a fleet whose every request outlives
// the timeout fails every request after exactly MaxRetries retries.
func TestTimeoutExhaustsRetryBudget(t *testing.T) {
	const retries = 2
	spec := workload.Spec{
		Name:        "glacial",
		Arrivals:    stats.Poisson{RateV: 2000},
		Service:     stats.Deterministic{V: 0.1}, // 100 ms >> any timeout here
		Connections: 16,
		MemAccesses: 1,
	}
	fl, err := New(Config{
		Policy:  RoundRobin,
		Faults:  FaultConfig{RequestTimeout: sim.Millisecond, MaxRetries: retries},
		Members: uniformMembers(2, soc.CPC1A),
	}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(0, 20*sim.Millisecond)
	fs := fl.flt
	if fs.failed == 0 || fs.ok != 0 {
		t.Fatalf("want all-failures, got ok %d failed %d", fs.ok, fs.failed)
	}
	// Every failure consumed its full retry budget; sheds consumed none.
	if want := retries * (fs.failed); fs.retried != want {
		t.Errorf("retried %d, want exactly %d (%d failures × %d retries)",
			fs.retried, want, fs.failed, retries)
	}
	if got := m.OK + m.Failed + m.Shed; got != m.Generated {
		t.Errorf("ok+failed+shed %d != generated %d", got, m.Generated)
	}
}

// TestHedgeRaceFirstResponseWins: hedged copies are submitted after the
// delay, the losing copy's response is ignored (machine completions
// exceed client successes), and no request is double-counted.
func TestHedgeRaceFirstResponseWins(t *testing.T) {
	fl, err := New(Config{
		Policy:  LeastLoaded,
		Faults:  FaultConfig{HedgeDelay: 50 * sim.Microsecond},
		Members: uniformMembers(2, soc.CPC1A),
	}, workload.Memcached(50000), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
	if m.Hedged == 0 {
		t.Fatal("no hedges fired — property test is vacuous")
	}
	if m.Failed != 0 || m.Shed != 0 {
		t.Fatalf("hedge-only fleet failed %d / shed %d requests", m.Failed, m.Shed)
	}
	if m.OK != m.Generated {
		t.Errorf("ok %d != generated %d: hedging lost or duplicated requests", m.OK, m.Generated)
	}
	// Each hedge's loser still completes inside its machine: the
	// machine-view served count exceeds client successes by exactly the
	// number of races both copies finished.
	if m.Served < m.OK {
		t.Errorf("served %d < ok %d — a client success nobody served", m.Served, m.OK)
	}
}

// TestShedWhenNoLiveCapacity: when every member is down, arrivals are
// shed at the balancer instead of queueing forever.
func TestShedWhenNoLiveCapacity(t *testing.T) {
	fl := faultFleet(t, RoundRobin, FaultConfig{
		MTBF: 1,                 // crash essentially immediately...
		MTTR: 1000 * sim.Second, // ...and never repair within the run
	}, 0, 0)
	m := fl.Measure(0, 20*sim.Millisecond)
	if m.Crashes == 0 {
		t.Fatal("no crashes — test is vacuous")
	}
	if m.Shed == 0 {
		t.Error("fleet with zero live capacity shed nothing")
	}
	if got := m.OK + m.Failed + m.Shed; got != m.Generated {
		t.Errorf("ok+failed+shed %d != generated %d", got, m.Generated)
	}
}

// TestFaultDeterminism extends the fleet determinism contract to the
// full fault stack: crashes, brownouts, partitions, timeouts, retries
// and hedging layered over the drain controller and feedback loop —
// same seed, bit-identical measurement.
func TestFaultDeterminism(t *testing.T) {
	fc := FaultConfig{
		MTBF:                 8 * sim.Millisecond,
		MTTR:                 2 * sim.Millisecond,
		BrownoutMTBF:         6 * sim.Millisecond,
		BrownoutDuration:     sim.Millisecond,
		BrownoutFactor:       4,
		TorPartitionMTBF:     15 * sim.Millisecond,
		TorPartitionDuration: 2 * sim.Millisecond,
		RequestTimeout:       2 * sim.Millisecond,
		MaxRetries:           2,
		HedgeDelay:           sim.Millisecond,
	}
	run := func() Measurement {
		fl := faultFleet(t, RackPowerAware, fc, 500*sim.Microsecond, 2*sim.Millisecond)
		return fl.Measure(5*sim.Millisecond, 40*sim.Millisecond)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated fault runs differ")
	}
	if a.Crashes == 0 || a.Brownouts == 0 || a.Partitions == 0 || a.Retried == 0 {
		t.Errorf("determinism test under-exercised: crashes %d brownouts %d partitions %d retried %d",
			a.Crashes, a.Brownouts, a.Partitions, a.Retried)
	}
}

// TestRackDroppedAggregation covers the rack-zone fold of the drain
// leak counters (cluster.go rackStats): per-rack Dropped and
// TruncatedDrain must sum the members', and the fleet total must sum
// the racks'.
func TestRackDroppedAggregation(t *testing.T) {
	spec := workload.Spec{
		Name:        "glacial",
		Arrivals:    stats.Poisson{RateV: 5000},
		Service:     stats.Deterministic{V: 3 * server.DrainCap.Seconds()},
		Connections: 8,
		MemAccesses: 1,
	}
	fl, err := New(Config{
		Policy:     RoundRobin,
		Topology:   Topology{Racks: 2, ServersPerRack: 1},
		TorLatency: 5 * sim.Microsecond,
		Members:    uniformMembers(2, soc.CPC1A),
	}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(0, sim.Millisecond)
	if m.Dropped == 0 {
		t.Fatal("drain cap never tripped — aggregation test is vacuous")
	}
	var rackDropped, rackTrunc uint64
	for _, rs := range m.Racks {
		rackDropped += rs.Dropped
		rackTrunc += rs.TruncatedDrain
		var wantD, wantT uint64
		for _, ss := range m.Servers {
			if ss.Rack == rs.Index {
				wantD += ss.Dropped
				wantT += ss.TruncatedDrain
			}
		}
		if rs.Dropped != wantD || rs.TruncatedDrain != wantT {
			t.Errorf("rack %d: dropped %d truncated %d, want %d/%d from its servers",
				rs.Index, rs.Dropped, rs.TruncatedDrain, wantD, wantT)
		}
	}
	if rackDropped != m.Dropped || rackTrunc != m.TruncatedDrain {
		t.Errorf("rack sums %d/%d != fleet %d/%d", rackDropped, rackTrunc, m.Dropped, m.TruncatedDrain)
	}
	// These stragglers are still progressing (their service events are
	// pending), so they are truncated, not leaked.
	if m.TruncatedDrain != m.Dropped {
		t.Errorf("truncated %d != dropped %d: pending completions misread as leaks",
			m.TruncatedDrain, m.Dropped)
	}
}

// TestStaleHoldExpiryDiscarded covers the stale-expiry filter directly:
// a member re-admitted and re-drained within one hold must ignore the
// first hold's expiry event and honor only its own.
func TestStaleHoldExpiryDiscarded(t *testing.T) {
	const hold = 4 * sim.Millisecond
	fl := drainFleet(t, PowerAware, hold, 0)
	m := fl.members[3]

	fl.drainMember(m) // empty → held; expiry scheduled at now+hold
	if m.state != stHeld {
		t.Fatalf("empty member did not hold (state %d)", m.state)
	}
	// Emergency re-admission mid-hold (what pickLiveAvoid does when no
	// eligible member is left), then an immediate re-drain.
	fl.eng.Run(fl.eng.Now() + hold/2)
	m.state = stActive
	fl.drainMember(m) // second hold; expiry at now+hold
	if m.state != stHeld {
		t.Fatalf("re-drain did not hold (state %d)", m.state)
	}
	fl.eng.Run(fl.eng.Now() + 3*hold/4) // first expiry fires in here
	if m.state != stHeld {
		t.Error("stale hold expiry re-activated the member before its own hold elapsed")
	}
	fl.eng.Run(fl.eng.Now() + hold/2) // second expiry fires in here
	if m.state != stActive {
		t.Error("the member's own hold expiry never re-activated it")
	}
}

// TestFaultValidateReportsFirstDeclaredField locks the validation
// error's determinism: with several negative knobs, the one reported
// is the first in FaultConfig's declared field order on every run (the
// loop iterates a slice, not a map — the apcvet determinism pass
// rejects error text born from map iteration).
func TestFaultValidateReportsFirstDeclaredField(t *testing.T) {
	fc := FaultConfig{
		MTBF:             -sim.Second,
		TorPartitionMTBF: -sim.Second,
		HedgeDelay:       -sim.Second,
	}
	err := fc.validate(Topology{Racks: 2, ServersPerRack: 2})
	if err == nil {
		t.Fatal("negative fault durations must not validate")
	}
	if want := "negative Faults.MTBF"; !strings.Contains(err.Error(), want) {
		t.Fatalf("validate reported %q; want the first declared field (%q)", err, want)
	}
}
