package experiments

// rack-packing asks the ROADMAP's post-cluster question: once a fleet
// has rack structure — a top-of-rack hop into every non-local rack and
// per-rack power zones — does rack-granular packing deepen PC1A further
// than flat packing? The experiment holds the aggregate Memcached rate
// fixed and reshapes the same 8 servers (2 racks × 4, 4 racks × 2, flat
// 8), dueling rack_affinity against flat power_aware on each shape; the
// per-rack zone tables show whether whole racks go dark.

import (
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// Defaults for the rack-packing experiment, exported so callers can
// rerun the registered artifact programmatically with explicit shapes.
var (
	// DefaultRackTopologies are the shapes the same 8 servers are bent
	// into: two racks of four, four racks of two, and the flat baseline.
	DefaultRackTopologies = []cluster.Topology{
		{Racks: 2, ServersPerRack: 4},
		{Racks: 4, ServersPerRack: 2},
		{Racks: 1, ServersPerRack: 8},
	}
	// DefaultRackPolicies duels rack-granular packing against the flat
	// packer on every shape.
	DefaultRackPolicies = []cluster.Policy{cluster.RackAffinity, cluster.PowerAware}
)

// Fixed operating point of the rack-packing duel.
const (
	// DefaultRackTorLatency is the one-way top-of-rack hop charged per
	// direction on traffic into a non-local rack (a switch traversal, a
	// few µs at datacenter scale).
	DefaultRackTorLatency = 5 * sim.Microsecond
	// DefaultRackAggregateQPS and DefaultRackBurstiness fix the bursty
	// aggregate Memcached stream: the mean fits comfortably inside one
	// rack, but bursts overflow a single rack's natural capacity, so the
	// shapes and policies actually diverge — rack_affinity wakes the
	// next rack, the flat packer queues deeper on the local one.
	DefaultRackAggregateQPS = 600000.0
	DefaultRackBurstiness   = 8.0
)

func init() {
	Define(170, "rack-packing",
		"rack_affinity vs power_aware across rack shapes at fixed aggregate QPS",
		func(o Options) (Result, error) { return RackPacking(o, DefaultRackTopologies) })
}

// measureFleet builds and measures one fleet of default CPC1A machines:
// cfg carries everything but the members, which are filled in from the
// topology (Flat(n) for unracked fleets). specFn builds the workload per
// call: arrival processes (MMPP2) carry mutable phase state, so
// concurrently-running fleets must never share one spec value. reuse is
// the calling sweep worker's graph cache: the fleet runs as a one-tier
// graph (byte-identical to the bare fleet, TestGraphSingleTierParity),
// and consecutive points with the same topology shape reset it instead
// of building a new one.
func measureFleet(reuse *cluster.GraphReuse, opt Options, cfg cluster.Config, specFn func() workload.Spec) cluster.Measurement {
	cfg.Members = fleetMembers(cfg.Topology.Servers(), opt.Seed)
	g, err := reuse.Graph(cluster.GraphConfig{
		Tiers: []cluster.TierConfig{{Cluster: cfg, Spec: specFn()}},
	}, opt.Seed)
	if err != nil {
		// All inputs are compile-time constants; an error is a bug.
		panic(err)
	}
	return g.Measure(opt.Warmup(), opt.Duration).Tiers[0].Fleet
}

// newReuse builds one graph cache per sweep worker (SweepWith's newS).
func newReuse() *cluster.GraphReuse { return new(cluster.GraphReuse) }

// fleetMembers builds n default CPC1A machines, the fleet material of
// every cluster experiment.
func fleetMembers(n int, seed uint64) []cluster.MemberConfig {
	members := make([]cluster.MemberConfig, n)
	for i := range members {
		scfg := server.DefaultConfig()
		scfg.Seed = seed
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: scfg}
	}
	return members
}

// RackPoint is one measured (topology, policy) operating point.
type RackPoint struct {
	// Topology is the rack shape ("2x4"); Racks and ServersPerRack are
	// its factors for machine consumers.
	Topology       string              `json:"topology"`
	Racks          int                 `json:"racks"`
	ServersPerRack int                 `json:"servers_per_rack"`
	Policy         string              `json:"policy"`
	Fleet          cluster.Measurement `json:"fleet"`
}

// racksUsed counts racks the balancer actually routed into (1 for flat
// fleets, whose single zone always carries the traffic).
func (p RackPoint) racksUsed() int {
	if len(p.Fleet.Racks) == 0 {
		return 1
	}
	n := 0
	for _, rs := range p.Fleet.Racks {
		if rs.Routed > 0 {
			n++
		}
	}
	return n
}

// RackPackingResult is the rack-packing artifact.
type RackPackingResult struct {
	AggregateQPS float64      `json:"aggregate_qps"`
	TorLatency   sim.Duration `json:"tor_latency_ns"`
	Duration     sim.Duration `json:"duration_ns"`
	Points       []RackPoint  `json:"points"`
}

// RackPacking evaluates every (topology, policy) pair under one fixed
// aggregate Memcached rate. Each pair is an independent fleet on its own
// engine, so points fan out through the §2 worker pool like any other
// sweep.
func RackPacking(opt Options, topos []cluster.Topology) (*RackPackingResult, error) {
	if len(topos) == 0 {
		return nil, fmt.Errorf("rack-packing: no topologies")
	}
	for _, topo := range topos {
		if topo.Racks < 1 || topo.ServersPerRack < 1 {
			return nil, fmt.Errorf("rack-packing: topology %s is not positive", topo)
		}
	}
	specFn := func() workload.Spec {
		return workload.MemcachedBursty(DefaultRackAggregateQPS, DefaultRackBurstiness)
	}
	type pt struct {
		topo cluster.Topology
		pol  cluster.Policy
	}
	var pts []pt
	for _, topo := range topos {
		for _, pol := range DefaultRackPolicies {
			pts = append(pts, pt{topo: topo, pol: pol})
		}
	}
	res := &RackPackingResult{
		AggregateQPS: specFn().MeanQPS(),
		TorLatency:   DefaultRackTorLatency,
		Duration:     opt.Duration,
	}
	res.Points = SweepWith(opt, pts, newReuse, func(reuse *cluster.GraphReuse, p pt) RackPoint {
		return RackPoint{
			Topology:       p.topo.String(),
			Racks:          p.topo.Racks,
			ServersPerRack: p.topo.ServersPerRack,
			Policy:         p.pol.String(),
			Fleet: measureFleet(reuse, opt, cluster.Config{
				Policy:     p.pol,
				P99Target:  DefaultClusterP99Target,
				Topology:   p.topo,
				TorLatency: DefaultRackTorLatency,
			}, specFn),
		}
	})
	return res, nil
}

// Report implements Result.
func (r *RackPackingResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rack packing: bursty %.0f aggregate QPS Memcached, %v ToR hop, same 8 servers reshaped\n",
		r.AggregateQPS, r.TorLatency)
	b.WriteString("(rack 0 is balancer-local; rack-granular packing vs the flat packer)\n")
	t := &table{header: []string{"topology", "policy", "p50", "p99", "p99.9", "fleet W", "W/kQPS", "racks used", "PC1A res", "dropped"}}
	for _, p := range r.Points {
		pc1a := "-"
		if p.Fleet.PC1AResidency != nil {
			pc1a = pct(*p.Fleet.PC1AResidency)
		}
		t.add(
			p.Topology,
			p.Policy,
			fmt.Sprintf("%.1fus", p.Fleet.P50Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P99Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P999Latency*1e6),
			fmt.Sprintf("%.1fW", p.Fleet.TotalWatts),
			fmt.Sprintf("%.2f", wattsPerKQPS(p.Fleet)),
			fmt.Sprintf("%d/%d", p.racksUsed(), p.Racks),
			pc1a,
			fmt.Sprintf("%d", p.Fleet.Dropped),
		)
	}
	b.WriteString(t.String())

	// Rack-zone breakdowns: whether the dark racks actually went dark.
	for _, p := range r.Points {
		if len(p.Fleet.Racks) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nrack zones [%s %s]:\n", p.Topology, p.Policy)
		zt := &table{header: []string{"rack", "active", "routed", "zone W", "all-idle", "PC1A res"}}
		for _, rs := range p.Fleet.Racks {
			local := ""
			if rs.Local {
				local = "*"
			}
			pc1a := "-"
			if rs.PC1AResidency != nil {
				pc1a = pct(*rs.PC1AResidency)
			}
			zt.add(
				fmt.Sprintf("%d%s", rs.Index, local),
				fmt.Sprintf("%d/%d", rs.ActiveServers, rs.Servers),
				fmt.Sprintf("%d", rs.Routed),
				fmt.Sprintf("%.1fW", rs.TotalWatts),
				pct(rs.AllIdle),
				pc1a,
			)
		}
		b.WriteString(zt.String())
	}
	return b.String()
}

// WriteCSV implements CSVWriter: one aggregate row per point (rack cell
// empty) followed by its per-rack zone rows, so one file holds both
// granularities like the other cluster CSVs.
func (r *RackPackingResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "topology,racks,servers_per_rack,policy,rack,local,active_servers,routed,served,dropped,mean_s,p99_s,soc_w,dram_w,total_w,all_idle,pc1a_residency"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,,,,%d,%d,%d,%g,%g,%g,%g,%g,%g,%s\n",
			p.Topology, p.Racks, p.ServersPerRack, p.Policy,
			p.Fleet.Generated, p.Fleet.Served, p.Fleet.Dropped,
			p.Fleet.MeanLatency, p.Fleet.P99Latency,
			p.Fleet.SoCWatts, p.Fleet.DRAMWatts, p.Fleet.TotalWatts,
			p.Fleet.AllIdle, pc1aCell(p.Fleet.PC1AResidency)); err != nil {
			return err
		}
		for _, rs := range p.Fleet.Racks {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%d,%t,%d,%d,%d,%d,%g,%g,%g,%g,%g,%g,%s\n",
				p.Topology, p.Racks, p.ServersPerRack, p.Policy,
				rs.Index, rs.Local, rs.ActiveServers,
				rs.Routed, rs.Served, rs.Dropped,
				rs.MeanLatency, rs.P99Latency,
				rs.SoCWatts, rs.DRAMWatts, rs.TotalWatts,
				rs.AllIdle, pc1aCell(rs.PC1AResidency)); err != nil {
				return err
			}
		}
	}
	return nil
}
