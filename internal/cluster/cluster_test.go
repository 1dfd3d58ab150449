package cluster

import (
	"reflect"
	"testing"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// uniformMembers builds an n-server fleet config of identical
// default-calibration machines.
func uniformMembers(n int, kind soc.ConfigKind) []MemberConfig {
	members := make([]MemberConfig, n)
	for i := range members {
		members[i] = MemberConfig{SoC: soc.DefaultConfig(kind), Server: server.DefaultConfig()}
	}
	return members
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{RoundRobin, LeastLoaded, PowerAware, RackAffinity, RackPowerAware} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("weighted"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestNewValidation(t *testing.T) {
	spec := workload.Memcached(10000)
	cases := []struct {
		name string
		cfg  Config
		spec workload.Spec
	}{
		{"no members", Config{Policy: RoundRobin}, spec},
		{"power_aware without target", Config{Policy: PowerAware, Members: uniformMembers(2, soc.CPC1A)}, spec},
		{"rack_power_aware without target", Config{Policy: RackPowerAware, Members: uniformMembers(2, soc.CPC1A)}, spec},
		{"bogus policy", Config{Policy: Policy(99), Members: uniformMembers(2, soc.CPC1A)}, spec},
		{"closed-loop spec", Config{Policy: RoundRobin, Members: uniformMembers(2, soc.CPC1A)}, workload.Spec{}},
		{"topology size mismatch", Config{
			Policy: RoundRobin, Topology: Topology{Racks: 2, ServersPerRack: 3},
			Members: uniformMembers(4, soc.CPC1A)}, spec},
		{"zero servers per rack", Config{
			Policy: RoundRobin, Topology: Topology{Racks: 2},
			Members: uniformMembers(2, soc.CPC1A)}, spec},
		{"negative ToR latency", Config{
			Policy: RoundRobin, Topology: Topology{Racks: 2, ServersPerRack: 1},
			TorLatency: -sim.Microsecond, Members: uniformMembers(2, soc.CPC1A)}, spec},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.spec, 1); err == nil {
			t.Errorf("%s: New accepted an invalid config", c.name)
		}
	}
}

func TestRoundRobinEvenSpread(t *testing.T) {
	fl, err := New(Config{Policy: RoundRobin, Members: uniformMembers(4, soc.CPC1A)},
		workload.Memcached(40000), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	if m.Generated == 0 || m.Served == 0 {
		t.Fatalf("no traffic: %+v", m)
	}
	var min, max uint64 = ^uint64(0), 0
	for _, ss := range m.Servers {
		if ss.Routed < min {
			min = ss.Routed
		}
		if ss.Routed > max {
			max = ss.Routed
		}
	}
	if max-min > 1 {
		t.Errorf("round_robin spread uneven: min %d max %d", min, max)
	}
}

func TestLeastLoadedUsesAllServers(t *testing.T) {
	fl, err := New(Config{Policy: LeastLoaded, Members: uniformMembers(4, soc.CPC1A)},
		workload.Memcached(40000), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	for _, ss := range m.Servers {
		if ss.Routed == 0 {
			t.Errorf("least_loaded starved server %d", ss.Index)
		}
	}
}

// TestPowerAwarePacks is the policy's reason to exist: at light aggregate
// load it concentrates traffic on the low-indexed servers so the
// high-indexed ones idle into deep package C-states.
func TestPowerAwarePacks(t *testing.T) {
	fl, err := New(Config{
		Policy:    PowerAware,
		P99Target: 300 * sim.Microsecond,
		Members:   uniformMembers(4, soc.CPC1A),
	}, workload.Memcached(40000), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	first, last := m.Servers[0], m.Servers[3]
	if first.Routed <= 10*last.Routed {
		t.Errorf("power_aware did not pack: server0 routed %d, server3 routed %d",
			first.Routed, last.Routed)
	}
	if last.AllIdle <= first.AllIdle {
		t.Errorf("drained server not idler than packed one: server0 all-idle %.3f, server3 %.3f",
			first.AllIdle, last.AllIdle)
	}
	if first.PC1AResidency == nil || last.PC1AResidency == nil {
		t.Fatal("CPC1A members missing PC1A stats")
	}
	if *last.PC1AResidency <= *first.PC1AResidency {
		t.Errorf("drained server should sit deeper in PC1A: server0 %.3f, server3 %.3f",
			*first.PC1AResidency, *last.PC1AResidency)
	}
}

// TestFleetDeterminism is the cluster half of the repo's determinism
// contract: same seed, same fleet, bit-identical measurement — for every
// policy.
func TestFleetDeterminism(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, PowerAware, RackAffinity, RackPowerAware} {
		run := func() Measurement {
			fl, err := New(Config{
				Policy:     pol,
				P99Target:  300 * sim.Microsecond,
				Topology:   Topology{Racks: 3, ServersPerRack: 1},
				TorLatency: 5 * sim.Microsecond,
				Members:    uniformMembers(3, soc.CPC1A),
			}, workload.MemcachedBursty(30000, 4), 7)
			if err != nil {
				t.Fatal(err)
			}
			return fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: repeated runs differ:\n%+v\n%+v", pol, a, b)
		}
	}
}

// TestDroppedSaturatedServer drives a heterogeneous fleet where
// round_robin keeps feeding a server that cannot keep up (its per-server
// kernel overhead makes every request take ~1s of core time). The
// backlog cannot clear within server.DrainCap, so the fleet's Dropped
// leak counter must surface those requests — concentrated on the slow
// server — and the fleet-wide accounting must still balance.
func TestDroppedSaturatedServer(t *testing.T) {
	slow := server.DefaultConfig()
	slow.KernelOverhead = sim.Second
	members := uniformMembers(2, soc.CPC1A)
	members[1].Server = slow

	fl, err := New(Config{Policy: RoundRobin, Members: members},
		workload.Memcached(10000), 1)
	if err != nil {
		t.Fatal(err)
	}
	fl.Run(100 * sim.Millisecond)

	if fl.Dropped() == 0 {
		t.Fatal("saturated server dropped nothing")
	}
	var served, dropped uint64
	healthyDropped := uint64(0)
	for i, m := range fl.members {
		served += m.srv.Served()
		dropped += m.dropped
		if i == 0 {
			healthyDropped = m.dropped
		}
	}
	if healthyDropped != 0 {
		t.Errorf("healthy server dropped %d requests", healthyDropped)
	}
	if got := fl.Generated(); got != served+dropped {
		t.Errorf("request accounting leaks: generated %d != served %d + dropped %d",
			got, served, dropped)
	}
	if dropped != fl.Dropped() {
		t.Errorf("Dropped() = %d, per-member sum %d", fl.Dropped(), dropped)
	}
}

// oneServer builds a one-member round_robin fleet of kind fed spec —
// the single machine every figure point runs on.
func oneServer(t *testing.T, kind soc.ConfigKind, spec workload.Spec) *Fleet {
	t.Helper()
	fl, err := New(Config{Members: uniformMembers(1, kind)}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// A tail slower than the old fixed 100ms drain cap must still be served:
// Run drains until every in-flight request completes.
func TestRunDrainsSlowTails(t *testing.T) {
	fl := oneServer(t, soc.Cshallow, workload.Spec{
		Name:        "slow-tail",
		Arrivals:    stats.Poisson{RateV: 100},
		Service:     stats.Deterministic{V: 0.15}, // 150ms on-core, per request
		Connections: 10,
		MemAccesses: 1,
	})
	fl.Run(20 * sim.Millisecond)
	srv := fl.Server(0)
	if fl.Generated() == 0 {
		t.Fatal("no load generated")
	}
	if srv.Served() != fl.Generated() {
		t.Fatalf("served %d != generated %d: slow tail was abandoned", srv.Served(), fl.Generated())
	}
	if fl.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", fl.Dropped())
	}
}

// When the backlog genuinely cannot clear within the drain cap, Run
// surfaces the leak through Dropped instead of losing it silently.
func TestRunSurfacesDroppedRequests(t *testing.T) {
	fl := oneServer(t, soc.Cshallow, workload.Spec{
		Name:        "stuck",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * server.DrainCap.Seconds()}, // can never finish draining
		Connections: 10,
		MemAccesses: 1,
	})
	fl.Run(sim.Millisecond)
	srv := fl.Server(0)
	if fl.Dropped() == 0 {
		t.Fatal("drain cap tripped but Dropped() == 0")
	}
	if srv.Served()+fl.Dropped() != fl.Generated() {
		t.Fatalf("served %d + dropped %d != generated %d",
			srv.Served(), fl.Dropped(), fl.Generated())
	}
	// Dropped is a snapshot of the latest Run, not an accumulator: a
	// second Run must not double-count the same stuck requests, and the
	// invariant must keep holding.
	fl.Run(sim.Millisecond)
	if srv.Served()+fl.Dropped() != fl.Generated() {
		t.Fatalf("after second Run: served %d + dropped %d != generated %d",
			srv.Served(), fl.Dropped(), fl.Generated())
	}
}

// The truncated count separates "still draining at the cap" from
// "leaked forever": a request whose completion event is still queued
// when the DrainCap trips is truncated, not leaked, and the counter
// must say so.
func TestTruncatedDrainDistinguishesSlowFromLeaked(t *testing.T) {
	fl := oneServer(t, soc.Cshallow, workload.Spec{
		Name:        "glacial",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * server.DrainCap.Seconds()}, // outlives the cap
		Connections: 10,
		MemAccesses: 1,
	})
	fl.Run(sim.Millisecond)
	if fl.Dropped() == 0 {
		t.Fatal("drain cap never tripped — test is vacuous")
	}
	// The glacial requests' completion events are still pending, so
	// every dropped request is a truncation, not a leak.
	if m := fl.members[0]; m.truncated != m.dropped {
		t.Fatalf("truncated %d != dropped %d: pending completions misread as leaks",
			m.truncated, m.dropped)
	}
}

// A clean drain reports no truncation.
func TestTruncatedDrainZeroOnCleanRuns(t *testing.T) {
	fl := oneServer(t, soc.CPC1A, workload.Memcached(20000))
	fl.Run(10 * sim.Millisecond)
	if srv := fl.Server(0); srv.Served() != fl.Generated() {
		t.Fatalf("served %d != generated %d", srv.Served(), fl.Generated())
	}
	if trunc := fl.members[0].truncated; trunc != 0 {
		t.Fatalf("truncated %d on a clean drain", trunc)
	}
}

// TestPowerAwareCapDerivation pins the cap formula's shape: more slack
// admits more in-flight requests, and the cap never drops below 1.
func TestPowerAwareCapDerivation(t *testing.T) {
	mc := MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	spec := workload.Memcached(10000)
	tight := powerAwareCap(mc, spec, 150*sim.Microsecond, 0)
	loose := powerAwareCap(mc, spec, sim.Millisecond, 0)
	if tight < 1 {
		t.Errorf("cap below 1: %d", tight)
	}
	if loose <= tight {
		t.Errorf("more latency slack should admit more load: tight %d, loose %d", tight, loose)
	}
	// A rack round trip eats into the same slack, so a remote member's
	// cap can never exceed a local one's.
	if remote := powerAwareCap(mc, spec, sim.Millisecond, 100*sim.Microsecond); remote > loose {
		t.Errorf("ToR round trip should not widen the cap: local %d, remote %d", loose, remote)
	}
	if c := powerAwareCap(mc, spec, sim.Nanosecond, 0); c != mc.SoC.CoreCount {
		// An unreachable target leaves no queueing slack: one request
		// per core.
		t.Errorf("no-slack cap = %d, want %d", c, mc.SoC.CoreCount)
	}
}
