package cluster

import (
	"runtime"
	"slices"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// emptiedKeep runs the test with an empty keep and one CPU (a member
// budget of 16), and empties the keep again afterwards.
func emptiedKeep(t *testing.T) {
	t.Helper()
	empty := func() {
		idleMu.Lock()
		idle = nil
		idleMu.Unlock()
	}
	empty()
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		empty()
	})
}

// kept reports whether g is one of the keep's idle graphs.
func kept(g *Graph) bool {
	idleMu.Lock()
	defer idleMu.Unlock()
	return slices.ContainsFunc(idle, func(e idleGraph) bool { return e.g == g })
}

// keptMembers is the member total of the keep's idle graphs.
func keptMembers() int {
	idleMu.Lock()
	defer idleMu.Unlock()
	n := 0
	for _, e := range idle {
		n += e.members
	}
	return n
}

// fleetOf is a one-tier round_robin graph of n CPC1A members.
func fleetOf(n int) GraphConfig {
	return oneTier(Config{Members: uniformMembers(n, soc.CPC1A)}, workload.Memcached(20000))
}

// sweepOnce runs one point of cfg through a new GraphReuse, as a sweep
// worker does, hands the graph back, and returns it.
func sweepOnce(t *testing.T, cfg GraphConfig) *Graph {
	t.Helper()
	var r GraphReuse
	g, err := r.Graph(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(sim.Millisecond)
	r.Release()
	return g
}

// TestKeepBounds pins what the keep retains: at most keepMembers()
// members in all, no graph larger than that, and no graph that keepStale
// takes in a row passed over — a large fleet run once, then many small
// sweeps, leaves no large graph behind.
func TestKeepBounds(t *testing.T) {
	emptiedKeep(t)
	budget := keepMembers()

	if g := sweepOnce(t, fleetOf(budget+1)); kept(g) {
		t.Errorf("a %d-member graph was kept under a %d-member budget", budget+1, budget)
	}

	large := sweepOnce(t, fleetOf(8))
	if !kept(large) {
		t.Fatal("an 8-member graph was not kept")
	}
	small := fleetOf(1)
	for i := 0; i <= keepStale; i++ {
		sweepOnce(t, small)
	}
	if kept(large) {
		t.Errorf("the 8-member graph outlived %d small sweeps", keepStale+1)
	}

	// Graphs of distinct shapes (1, 2, …, 7 members: 28 in all) overflow
	// the budget; the oldest go first.
	var gs []*Graph
	for n := 1; n <= 7; n++ {
		gs = append(gs, sweepOnce(t, fleetOf(n)))
	}
	if got := keptMembers(); got > budget {
		t.Errorf("the keep holds %d members, budget %d", got, budget)
	}
	if kept(gs[0]) || !kept(gs[6]) {
		t.Error("the keep did not drop its oldest graphs first")
	}
}

// TestKeptGraphLetsGo pins that an idle graph holds nothing of its last
// run's inputs: no configuration (whose NewSource closure may hold a
// trace reader), no source that configuration supplied, and no pending
// engine event.
func TestKeptGraphLetsGo(t *testing.T) {
	emptiedKeep(t)
	cfg := fleetOf(2)
	cfg.Tiers[0].Cluster.NewSource = func(eng *sim.Engine, spec workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source {
		return workload.NewGenerator(eng, spec, seed, sink)
	}
	g := sweepOnce(t, cfg)
	fl := g.TierFleet(0)
	switch {
	case !kept(g):
		t.Fatal("the graph was not kept")
	case g.cfg.Tiers != nil, fl.cfg.NewSource != nil, fl.cfg.Members != nil:
		t.Error("an idle graph kept its last configuration")
	case fl.gen != nil:
		t.Error("an idle graph kept the source its configuration supplied")
	case g.eng.Pending() != 0:
		t.Errorf("an idle graph's engine holds %d pending events", g.eng.Pending())
	}
}
