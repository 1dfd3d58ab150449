package cluster

import (
	"reflect"
	"strings"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// twoTierConfig is the canonical test graph: a 4-server memcached
// cache tier in front of a 2-server MySQL backend, misses at the given
// hit ratio with the given TTL and fan-out.
func twoTierConfig(hitRatio float64, ttl sim.Duration, fanout int) GraphConfig {
	backend := workload.MySQL(0.1, 4)
	return GraphConfig{
		Tiers: []TierConfig{
			{
				Name: "cache",
				Cluster: Config{
					Policy: PowerAware, P99Target: 300 * sim.Microsecond,
					Members: uniformMembers(4, soc.CPC1A),
				},
				Spec: workload.Memcached(120000),
			},
			{
				Name: "db",
				Cluster: Config{
					Policy: PowerAware, P99Target: 2 * sim.Millisecond,
					Members: uniformMembers(2, soc.CPC1A),
				},
				Spec: backend,
			},
		},
		Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: hitRatio, TTL: ttl, Fanout: fanout}},
	}
}

// TestGraphSingleTierParity is the defining contract: a one-tier graph
// — no edges, no hook, the caller's seed on tier 0 — must measure
// byte-identically to the plain fleet it wraps, structure for
// structure, across policies and with the fault layer attached.
func TestGraphSingleTierParity(t *testing.T) {
	specs := []struct {
		name string
		cfg  Config
	}{
		{"power_aware", Config{
			Policy: PowerAware, P99Target: 300 * sim.Microsecond,
			Members: uniformMembers(4, soc.CPC1A),
		}},
		{"racked drain", Config{
			Policy: RackPowerAware, P99Target: 300 * sim.Microsecond,
			Topology: Topology{Racks: 2, ServersPerRack: 2}, TorLatency: 5 * sim.Microsecond,
			DrainHold: sim.Millisecond,
			Members:   uniformMembers(4, soc.CPC1A),
		}},
		{"faults", Config{
			Policy: LeastLoaded,
			Faults: FaultConfig{
				MTBF: 20 * sim.Millisecond, MTTR: 2 * sim.Millisecond,
				RequestTimeout: sim.Millisecond, MaxRetries: 2,
			},
			Members: uniformMembers(3, soc.CPC1A),
		}},
	}
	spec := workload.Memcached(80000)
	for _, c := range specs {
		t.Run(c.name, func(t *testing.T) {
			fl, err := New(c.cfg, spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := fl.Measure(2*sim.Millisecond, 20*sim.Millisecond)

			g, err := NewGraph(GraphConfig{
				Tiers: []TierConfig{{Name: "only", Cluster: c.cfg, Spec: spec}},
			}, 7)
			if err != nil {
				t.Fatal(err)
			}
			gm := g.Measure(2*sim.Millisecond, 20*sim.Millisecond)
			if len(gm.Tiers) != 1 || gm.Edges != nil || gm.Client != nil {
				t.Fatalf("one-tier graph measurement carries graph-only state: %+v", gm)
			}
			if !reflect.DeepEqual(gm.Tiers[0].Fleet, want) {
				t.Errorf("one-tier graph diverges from the plain fleet:\ngraph: %+v\nfleet: %+v", gm.Tiers[0].Fleet, want)
			}
		})
	}
}

// TestGraphConservation locks the cross-tier accounting identities: on
// every edge Issued = Fanout·Misses and Hits = Lookups−Misses; the
// backend's Generated count is exactly the edge's Issued; and the
// client's Served+Failed never exceeds the root's resolutions.
func TestGraphConservation(t *testing.T) {
	for _, fanout := range []int{1, 3} {
		g, err := NewGraph(twoTierConfig(0.8, 0, fanout), 3)
		if err != nil {
			t.Fatal(err)
		}
		m := g.Measure(2*sim.Millisecond, 30*sim.Millisecond)
		e := m.Edges[0]
		if e.Lookups == 0 || e.Misses == 0 {
			t.Fatalf("fanout %d: no lookups/misses: %+v", fanout, e)
		}
		if e.Issued != uint64(fanout)*e.Misses {
			t.Errorf("fanout %d: Issued = %d, want Fanout·Misses = %d", fanout, e.Issued, uint64(fanout)*e.Misses)
		}
		if e.Hits != e.Lookups-e.Misses {
			t.Errorf("fanout %d: Hits = %d, want %d", fanout, e.Hits, e.Lookups-e.Misses)
		}
		if got := m.Tiers[1].Fleet.Generated; got != e.Issued {
			t.Errorf("fanout %d: backend Generated = %d, want edge Issued = %d", fanout, got, e.Issued)
		}
		cl := m.Client
		if cl.Served == 0 {
			t.Fatalf("fanout %d: no client completions: %+v", fanout, cl)
		}
		if cl.Served+cl.Failed > m.Tiers[0].Fleet.Generated {
			t.Errorf("fanout %d: client resolutions %d exceed root generated %d",
				fanout, cl.Served+cl.Failed, m.Tiers[0].Fleet.Generated)
		}
		// The empirical hit rate must track the configured ratio (no TTL,
		// so the only misses are Bernoulli draws at 0.8).
		if e.MeasuredHitRate < 0.7 || e.MeasuredHitRate > 0.9 {
			t.Errorf("fanout %d: measured hit rate %.3f far from configured 0.8", fanout, e.MeasuredHitRate)
		}
		// Client latency must reflect the join: at least the cache tier's
		// own latency.
		if cl.P99Latency <= 0 || cl.MeanLatency <= 0 {
			t.Errorf("fanout %d: degenerate client latency: %+v", fanout, cl)
		}
	}
}

// TestGraphTTLMisses: with a finite TTL, connections re-miss when
// their entry expires, and the TTL misses are counted as a subset of
// the misses.
func TestGraphTTLMisses(t *testing.T) {
	g, err := NewGraph(twoTierConfig(1.0, 500*sim.Microsecond, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Measure(2*sim.Millisecond, 30*sim.Millisecond)
	e := m.Edges[0]
	if e.TTLMisses == 0 {
		t.Fatalf("no TTL misses despite 500µs TTL: %+v", e)
	}
	if e.TTLMisses > e.Misses {
		t.Errorf("TTLMisses %d exceeds Misses %d", e.TTLMisses, e.Misses)
	}
	// Hit ratio 1: every miss is a compulsory (first lookup per
	// connection) or TTL miss, so non-TTL misses are bounded by the
	// connection count.
	if compulsory := e.Misses - e.TTLMisses; compulsory > uint64(workload.Memcached(0).Connections) {
		t.Errorf("more compulsory misses (%d) than connections (%d)", compulsory, workload.Memcached(0).Connections)
	}
}

// TestGraphDeterministicAndResetParity: the same (config, seed) must
// measure identically run to run, and a dirty graph Reset must be
// byte-identical to a fresh build — the property that lets sweeps
// reuse graphs at any parallelism.
func TestGraphDeterministicAndResetParity(t *testing.T) {
	cfg := twoTierConfig(0.9, 200*sim.Microsecond, 2)

	fresh := func() GraphMeasurement {
		g, err := NewGraph(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g.Measure(2*sim.Millisecond, 20*sim.Millisecond)
	}
	want := fresh()
	if !reflect.DeepEqual(fresh(), want) {
		t.Fatal("two fresh identical graphs measured differently")
	}

	// Dirty the graph with a different point, then reset to the
	// original and compare.
	var r GraphReuse
	dirty := twoTierConfig(0.5, 0, 1)
	if _, err := r.Graph(dirty, 5); err != nil {
		t.Fatal(err)
	}
	g, err := r.Graph(dirty, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(10 * sim.Millisecond)
	g2, err := r.Graph(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatal("GraphReuse rebuilt instead of resetting a same-shape graph")
	}
	got := g2.Measure(2*sim.Millisecond, 20*sim.Millisecond)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset graph diverges from fresh build:\nreset: %+v\nfresh: %+v", got, want)
	}
}

// TestGraphValidation rejects every incoherent shape with a useful
// error.
func TestGraphValidation(t *testing.T) {
	tier := func(name string, servers int) TierConfig {
		return TierConfig{
			Name: name,
			Cluster: Config{
				Policy: PowerAware, P99Target: 300 * sim.Microsecond,
				Members: uniformMembers(servers, soc.CPC1A),
			},
			Spec: workload.Memcached(10000),
		}
	}
	cases := []struct {
		name string
		cfg  GraphConfig
	}{
		{"no tiers", GraphConfig{}},
		{"edge from out of range", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 2, To: 1, HitRatio: 0.5}},
		}},
		{"edge to out of range", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 0, To: 5, HitRatio: 0.5}},
		}},
		{"self edge", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 1, To: 1, HitRatio: 0.5}},
		}},
		{"edge into root", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 1, To: 0, HitRatio: 0.5}},
		}},
		{"hit ratio above 1", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: 1.5}},
		}},
		{"negative hit ratio", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: -0.1}},
		}},
		{"negative ttl", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: 0.5, TTL: -1}},
		}},
		{"fanout on never-miss edge", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
			Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: 1, Fanout: 3}},
		}},
		{"cycle", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1), tier("c", 1)},
			Edges: []EdgeConfig{
				{From: 0, To: 1, HitRatio: 0.5},
				{From: 1, To: 2, HitRatio: 0.5},
				{From: 2, To: 1, HitRatio: 0.5},
			},
		}},
		{"unreachable tier", GraphConfig{
			Tiers: []TierConfig{tier("a", 1), tier("b", 1)},
		}},
		{"non-root custom source", func() GraphConfig {
			b := tier("b", 1)
			b.Cluster.NewSource = func(eng *sim.Engine, spec workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source {
				return workload.NewPushSource(eng, spec, seed, sink)
			}
			return GraphConfig{
				Tiers: []TierConfig{tier("a", 1), b},
				Edges: []EdgeConfig{{From: 0, To: 1, HitRatio: 0.5}},
			}
		}()},
		{"invalid tier fleet", GraphConfig{
			Tiers: []TierConfig{{Name: "a", Cluster: Config{Policy: PowerAware}, Spec: workload.Memcached(1)}},
		}},
	}
	for _, c := range cases {
		if _, err := NewGraph(c.cfg, 1); err == nil {
			t.Errorf("%s: NewGraph accepted an invalid config", c.name)
		}
	}

	// More tiers than Check's stack scratch holds: a ten-tier chain
	// passes, and a back edge along it still closes a cycle.
	var chain GraphConfig
	for i := range 10 {
		chain.Tiers = append(chain.Tiers, tier(string(rune('a'+i)), 1))
		if i > 0 {
			chain.Edges = append(chain.Edges, EdgeConfig{From: i - 1, To: i, HitRatio: 0.5})
		}
	}
	if err := chain.Check(); err != nil {
		t.Errorf("ten-tier chain: %v", err)
	}
	chain.Edges = append(chain.Edges, EdgeConfig{From: 9, To: 1, HitRatio: 0.5})
	if err := chain.Check(); err == nil || !strings.Contains(err.Error(), "closes a cycle") {
		t.Errorf("ten-tier chain with a back edge: %v, want a cycle", err)
	}
}

// TestGraphFanoutRaisesBackendLoad: more fan-out means more backend
// requests for the same miss stream — the knob is not inert.
func TestGraphFanoutRaisesBackendLoad(t *testing.T) {
	gen := func(fanout int) uint64 {
		g, err := NewGraph(twoTierConfig(0.8, 0, fanout), 3)
		if err != nil {
			t.Fatal(err)
		}
		m := g.Measure(2*sim.Millisecond, 20*sim.Millisecond)
		return m.Tiers[1].Fleet.Generated
	}
	one, three := gen(1), gen(3)
	if three != 3*one {
		t.Errorf("backend Generated: fanout 3 gave %d, want exactly 3× fanout 1's %d "+
			"(same seed, same miss stream)", three, one)
	}
}
