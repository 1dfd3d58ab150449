package cluster

import (
	"reflect"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// resetCases are the configurations the Reset contract is pinned on:
// every balancer mechanism (packing, racks, drain hysteresis, SLA
// feedback, fault injection and robustness) appears in at least one.
var resetCases = []struct {
	name string
	cfg  Config
}{
	{"flat round_robin", Config{
		Policy:  RoundRobin,
		Members: nil, // filled by resetConfig
	}},
	{"flat power_aware", Config{
		Policy:    PowerAware,
		P99Target: 300 * sim.Microsecond,
	}},
	{"racked controller", Config{
		Policy:        RackPowerAware,
		P99Target:     300 * sim.Microsecond,
		Topology:      Topology{Racks: 2, ServersPerRack: 2},
		TorLatency:    5 * sim.Microsecond,
		DrainHold:     sim.Millisecond,
		FeedbackEpoch: sim.Millisecond,
	}},
	{"racked faults", Config{
		Policy:     RackAffinity,
		Topology:   Topology{Racks: 2, ServersPerRack: 2},
		TorLatency: 5 * sim.Microsecond,
		Faults: FaultConfig{
			MTBF:           20 * sim.Millisecond,
			MTTR:           2 * sim.Millisecond,
			RequestTimeout: 2 * sim.Millisecond,
			MaxRetries:     2,
			HedgeDelay:     500 * sim.Microsecond,
		},
	}},
}

// resetConfig fills in the four members every reset case uses.
func resetConfig(cfg Config) Config {
	cfg.Members = uniformMembers(4, soc.CPC1A)
	return cfg
}

// dirtyConfig is a same-shape point that exercises every mechanism the
// target case may have off (and vice versa), so the reset under test
// starts from a thoroughly used fleet rather than a fresh one.
func dirtyConfig(topo Topology) Config {
	return Config{
		Policy:        PowerAware,
		P99Target:     250 * sim.Microsecond,
		Topology:      topo,
		TorLatency:    3 * sim.Microsecond,
		DrainHold:     sim.Millisecond,
		FeedbackEpoch: sim.Millisecond,
		Members:       uniformMembers(4, soc.CPC1A),
	}
}

// oneTier wraps a fleet configuration as the one-tier graph sweeps
// reuse it through.
func oneTier(cfg Config, spec workload.Spec) GraphConfig {
	return GraphConfig{Tiers: []TierConfig{{Name: "fleet", Cluster: cfg, Spec: spec}}}
}

// TestFleetResetDeterministic is the reset contract on a single fleet:
// a reset one-tier graph is byte-identical to a fresh fleet. Each case
// first runs a different same-shape point (different policy, spec,
// seed and controller/fault setup), resets to the target point through
// GraphReuse, and requires the measurement to equal a fresh fleet's
// exactly. A second fresh fleet measured with MeasureInto into the
// dirty point's output must equal it too: reused caller-owned
// Servers/Racks buffers carry nothing over.
func TestFleetResetDeterministic(t *testing.T) {
	const warmup, window = 3 * sim.Millisecond, 15 * sim.Millisecond
	specFn := func() workload.Spec { return workload.MemcachedBursty(40000, 4) }
	for _, c := range resetCases {
		cfg := resetConfig(c.cfg)

		fresh, err := New(cfg, specFn(), 7)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := fresh.Measure(warmup, window)

		var r GraphReuse
		dirty, err := r.Graph(oneTier(dirtyConfig(cfg.Topology), workload.MemcachedBursty(60000, 8)), 3)
		if err != nil {
			t.Fatalf("%s: dirty point: %v", c.name, err)
		}
		dirtyOut := dirty.Measure(warmup, window).Tiers[0].Fleet

		g, err := r.Graph(oneTier(cfg, specFn()), 7)
		if err != nil {
			t.Fatalf("%s: reset point: %v", c.name, err)
		}
		if g != dirty {
			t.Fatalf("%s: GraphReuse rebuilt instead of resetting a same-shape fleet", c.name)
		}
		if got := g.Measure(warmup, window).Tiers[0].Fleet; !reflect.DeepEqual(want, got) {
			t.Errorf("%s: reset fleet diverged from fresh fleet:\nfresh: %+v\nreset: %+v",
				c.name, want, got)
		}

		again, err := New(cfg, specFn(), 7)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again.MeasureInto(&dirtyOut, warmup, window)
		if !reflect.DeepEqual(want, dirtyOut) {
			t.Errorf("%s: MeasureInto into a used Measurement diverged:\nfresh: %+v\nreused: %+v",
				c.name, want, dirtyOut)
		}
	}
}

// TestFleetResetShapeGuard pins the one thing a reset refuses: changing
// the fleet's topology shape, which the positional rack wiring cannot
// absorb.
func TestFleetResetShapeGuard(t *testing.T) {
	spec := workload.Memcached(10000)
	g, err := NewGraph(oneTier(resetConfig(Config{Policy: RoundRobin}), spec), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := oneTier(Config{
		Policy:   RoundRobin,
		Topology: Topology{Racks: 2, ServersPerRack: 2},
		Members:  uniformMembers(4, soc.CPC1A),
	}, spec)
	if err := g.Reset(bad, 1); err == nil {
		t.Error("Reset accepted a topology reshape")
	}
	if err := g.Reset(oneTier(resetConfig(Config{Policy: Policy(99)}), spec), 1); err == nil {
		t.Error("Reset accepted an invalid config")
	}
	// A GraphReuse falls back to a rebuild for the same reshape.
	r := GraphReuse{g: g}
	g2, err := r.Graph(bad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g {
		t.Error("GraphReuse handed back the old graph for a reshaped point")
	}
}

// TestMemberLoadTracksServer pins the balancer's incremental occupancy
// count against ground truth: at every routing decision, each member's
// tracked load equals the server's own in-flight count plus the
// requests still riding the ToR hop toward it.
func TestMemberLoadTracksServer(t *testing.T) {
	fl, err := New(Config{
		Policy:     RackPowerAware,
		P99Target:  300 * sim.Microsecond,
		Topology:   Topology{Racks: 2, ServersPerRack: 2},
		TorLatency: 5 * sim.Microsecond,
		DrainHold:  sim.Millisecond,
		Members:    uniformMembers(4, soc.CPC1A),
	}, workload.MemcachedBursty(60000, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	fl.testOnRoute = func(*member) {
		checked++
		for _, m := range fl.members {
			if m.load != m.srv.InFlight()+m.transit {
				t.Fatalf("member %d: tracked load %d != in-flight %d + transit %d",
					m.idx, m.load, m.srv.InFlight(), m.transit)
			}
		}
	}
	fl.Run(20 * sim.Millisecond)
	if checked == 0 {
		t.Fatal("no routing decisions observed")
	}
}

// TestRouteSteadyStateAllocs is the tentpole's contract on the hot
// path: once pools and arenas are primed, driving the fleet — routing,
// ToR transit, service, completion, drain and feedback decisions, and
// the fault layer's request-robustness envelope — allocates nothing,
// for every policy.
func TestRouteSteadyStateAllocs(t *testing.T) {
	policies := []Policy{RoundRobin, LeastLoaded, PowerAware, RackAffinity, RackPowerAware}
	for _, pol := range policies {
		for _, faults := range []bool{false, true} {
			name := pol.String()
			cfg := Config{
				Policy:     pol,
				P99Target:  300 * sim.Microsecond,
				Topology:   Topology{Racks: 2, ServersPerRack: 2},
				TorLatency: 5 * sim.Microsecond,
				Members:    uniformMembers(4, soc.CPC1A),
			}
			if pol == PowerAware || pol == RackPowerAware {
				cfg.DrainHold = sim.Millisecond
				cfg.FeedbackEpoch = sim.Millisecond
			}
			if faults {
				name += "+faults"
				cfg.Faults = FaultConfig{
					RequestTimeout: 2 * sim.Millisecond,
					MaxRetries:     2,
					HedgeDelay:     500 * sim.Microsecond,
				}
			}
			fl, err := New(cfg, workload.MemcachedBursty(60000, 8), 7)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fl.Run(5 * sim.Millisecond) // prime pools, arena, histograms
			allocs := testing.AllocsPerRun(3, func() {
				fl.Run(sim.Millisecond)
			})
			if allocs > 0 {
				t.Errorf("%s: steady-state Run allocates %.1f times per ms window, want 0",
					name, allocs)
			}
		}
	}
}

// TestRouteSteadyStateAllocsTiered extends the zero-alloc contract to
// the service-graph layer: a two-tier graph — miss decisions, the TTL
// fill table, fan-out emission through the push source, join records
// and pending-map churn on top of both tiers' full routing paths —
// still allocates nothing at steady state.
func TestRouteSteadyStateAllocsTiered(t *testing.T) {
	g, err := NewGraph(twoTierConfig(0.8, 500*sim.Microsecond, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	// The prime is longer than the single-fleet test's: the backend
	// tier's heavy-tailed MySQL service times keep deepening the join
	// pool and latency histograms for a few more milliseconds.
	g.Run(20 * sim.Millisecond) // prime pools, maps, arena, histograms
	allocs := testing.AllocsPerRun(3, func() {
		g.Run(sim.Millisecond)
	})
	if allocs > 0 {
		t.Errorf("two-tier graph: steady-state Run allocates %.1f times per ms window, want 0", allocs)
	}
}

// TestFaultLayerKeptAcrossReset pins that a reset keeps a faulty
// fleet's fault layer: the records the first point handed back stay in
// the pools, so the second point's first logical requests and attempts
// allocate nothing, and the reset point still measures exactly as a
// fresh fleet.
func TestFaultLayerKeptAcrossReset(t *testing.T) {
	const warmup, window = 3 * sim.Millisecond, 15 * sim.Millisecond
	cfg := resetConfig(resetCases[3].cfg)
	if !cfg.Faults.Enabled() {
		t.Fatal("the reset case lost its fault layer")
	}
	// A bursty spec carries its arrival state, so every build gets its own.
	spec := func() workload.Spec { return workload.MemcachedBursty(40000, 4) }
	g, err := NewGraph(oneTier(cfg, spec()), 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Measure(warmup, window)
	fl := g.tiers[0].fl
	fs := fl.flt
	nl, na := fs.logicals.Free(), fs.attempts.Free()
	if nl < 2 || na < 2 {
		t.Fatalf("first point left %d logical and %d attempt records in the pools, want several", nl, na)
	}

	if err := g.Reset(oneTier(cfg, spec()), 7); err != nil {
		t.Fatal(err)
	}
	if fl.flt != fs {
		t.Fatal("Reset rebuilt the fault layer instead of rewinding it")
	}
	// AllocsPerRun calls its function once more to warm up, so each
	// call draws half of what the pools hold.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < nl/2; i++ {
			fs.newLogical()
		}
		for i := 0; i < na/2; i++ {
			fs.newAttempt(nil, fl.members[0])
		}
	})
	if allocs != 0 {
		t.Errorf("the reset point's first %d logical and %d attempt records allocated %v times, want 0", nl, na, allocs)
	}

	// The draws above dirtied the pools; a reset point must not care.
	if err := g.Reset(oneTier(cfg, spec()), 7); err != nil {
		t.Fatal(err)
	}
	got := g.Measure(warmup, window).Tiers[0].Fleet
	fresh, err := New(cfg, spec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.Measure(warmup, window); !reflect.DeepEqual(want, got) {
		t.Errorf("reset faulty fleet diverged from a fresh one:\nfresh: %+v\nreset: %+v", want, got)
	}
}

// TestGraphReuseRewindAllocs pins what a second same-shape point costs
// through GraphReuse: the reset rewinds every member's machine in place
// (soc.System.Init, server.Server.Init allocate nothing), reuses the
// generator, push sources, edge RNGs and the tiers' bound hooks, and
// keeps the fault layer, and the configuration check keeps its scratch
// on the stack, so nothing is left.
func TestGraphReuseRewindAllocs(t *testing.T) {
	faulty := resetConfig(resetCases[3].cfg)
	for _, c := range []struct {
		name string
		cfg  GraphConfig
		want float64
	}{
		{"fleet", oneTier(resetConfig(resetCases[1].cfg), workload.MemcachedBursty(40000, 4)), 0},
		{"faulty fleet", oneTier(faulty, workload.MemcachedBursty(40000, 4)), 0},
		{"two tiers", twoTierConfig(0.9, 200*sim.Microsecond, 2), 0},
	} {
		var r GraphReuse
		g, err := r.Graph(c.cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g.Measure(sim.Millisecond, 5*sim.Millisecond)
		got := testing.AllocsPerRun(10, func() {
			if next, err := r.Graph(c.cfg, 7); err != nil || next != g {
				t.Fatalf("%s: GraphReuse did not reset the cached graph (%v)", c.name, err)
			}
		})
		if got != c.want {
			t.Errorf("%s: a same-shape point allocated %v times in GraphReuse.Graph, want %v", c.name, got, c.want)
		}
	}
}
