package experiments

// The two cluster experiments lift the paper's energy-proportionality
// argument from one SoC to the fleet, where the related work the paper
// positions against (CARB/µDPM-style batching, load concentration)
// actually operates: at the load balancer. cluster-scaling holds the
// aggregate request rate fixed and grows the fleet — per-server load
// falls, idle periods lengthen, and the spread-vs-pack gap widens.
// cluster-policy holds the fleet fixed and duels the three routing
// policies on bursty traffic.

import (
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// Defaults for the cluster experiments, exported so callers can rerun
// the registered artifacts programmatically with explicit axes.
var (
	// DefaultClusterSizes are the fleet sizes cluster-scaling sweeps.
	DefaultClusterSizes = []int{1, 2, 4, 8}
	// DefaultClusterPolicies is the head-to-head order of cluster-policy.
	DefaultClusterPolicies = []cluster.Policy{cluster.RoundRobin, cluster.LeastLoaded, cluster.PowerAware}
)

// Fixed operating points of the registered cluster experiments.
const (
	// DefaultClusterAggregateQPS is the fleet-wide Memcached arrival
	// rate held constant while cluster-scaling grows the fleet (≈21%
	// utilization on one 10-core server, ≈2.6% spread over eight).
	DefaultClusterAggregateQPS = 100000.0
	// DefaultClusterP99Target is the latency budget the power_aware
	// policy packs against in both experiments.
	DefaultClusterP99Target = 300 * sim.Microsecond
	// DefaultClusterPolicyServers and DefaultClusterPolicyQPS fix the
	// cluster-policy duel: four servers under bursty aggregate traffic.
	DefaultClusterPolicyServers = 4
	DefaultClusterPolicyQPS     = 60000.0
	// DefaultClusterPolicyBurstiness matches the bursty Memcached shape
	// the batching experiment uses.
	DefaultClusterPolicyBurstiness = 8.0
)

func init() {
	Define(150, "cluster-scaling",
		"fleet latency/energy vs size at fixed aggregate QPS (spread vs pack)",
		func(o Options) (Result, error) { return ClusterScaling(o, DefaultClusterSizes) })
	Define(160, "cluster-policy",
		"round_robin vs least_loaded vs power_aware on a bursty fleet",
		func(o Options) (Result, error) { return ClusterPolicy(o, DefaultClusterPolicies) })
}

// ClusterPoint is one measured fleet operating point. Fleet is a named
// field, not an embedded one: Measurement's per-server stats slice is
// also called Servers, and embedding would make the JSON encoder drop
// it in favor of the fleet-size field.
type ClusterPoint struct {
	Servers int                 `json:"servers"`
	Policy  string              `json:"policy"`
	Fleet   cluster.Measurement `json:"fleet"`
}

// runFleet builds and measures one flat fleet of n default CPC1A
// machines (rack.go's measureFleet with the trivial topology — an
// explicit Flat(n) assembles the identical event sequence, which
// TestFlatTopologyMatchesRackless pins).
func runFleet(reuse *cluster.GraphReuse, opt Options, n int, pol cluster.Policy, specFn func() workload.Spec) ClusterPoint {
	return ClusterPoint{
		Servers: n,
		Policy:  pol.String(),
		Fleet: measureFleet(reuse, opt, cluster.Config{
			Policy:    pol,
			P99Target: DefaultClusterP99Target,
			Topology:  cluster.Flat(n),
		}, specFn),
	}
}

// wattsPerKQPS is the fleet efficiency metric the cluster reports
// print: watts burned per thousand served requests per second. Both
// factors cover the same interval — the measured window including its
// drain tail — so warmup traffic neither inflates the rate nor dilutes
// the watts.
func wattsPerKQPS(m cluster.Measurement) float64 {
	if m.ServedWindow == 0 || m.Window <= 0 {
		return 0
	}
	qps := float64(m.ServedWindow) / m.Window.Seconds()
	return m.TotalWatts / (qps / 1000)
}

// ClusterScalingResult is the cluster-scaling artifact.
type ClusterScalingResult struct {
	AggregateQPS float64        `json:"aggregate_qps"`
	Duration     sim.Duration   `json:"duration_ns"`
	Points       []ClusterPoint `json:"points"`
}

// ClusterScaling evaluates round_robin and power_aware fleets of each
// size under one fixed aggregate Memcached rate. Each (size, policy)
// point is an independent fleet on its own engine, so points fan out
// through the §2 worker pool like any other sweep.
func ClusterScaling(opt Options, sizes []int) (*ClusterScalingResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("cluster-scaling: no fleet sizes")
	}
	for _, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("cluster-scaling: fleet size %d is below 1", n)
		}
	}
	specFn := func() workload.Spec { return workload.Memcached(DefaultClusterAggregateQPS) }
	type pt struct {
		n   int
		pol cluster.Policy
	}
	var pts []pt
	for _, n := range sizes {
		for _, pol := range []cluster.Policy{cluster.RoundRobin, cluster.PowerAware} {
			pts = append(pts, pt{n: n, pol: pol})
		}
	}
	res := &ClusterScalingResult{AggregateQPS: specFn().MeanQPS(), Duration: opt.Duration}
	res.Points = SweepWith(opt, pts, newReuse, func(reuse *cluster.GraphReuse, p pt) ClusterPoint {
		return runFleet(reuse, opt, p.n, p.pol, specFn)
	})
	return res, nil
}

// Report implements Result.
func (r *ClusterScalingResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster scaling: %.0f aggregate QPS Memcached on C_PC1A fleets\n", r.AggregateQPS)
	b.WriteString("(fixed fleet-wide load; more servers = lighter per-server load)\n")
	t := &table{header: []string{"servers", "policy", "p50", "p99", "p99.9", "fleet W", "W/kQPS", "PC1A res", "dropped"}}
	for _, p := range r.Points {
		pc1a := "-"
		if p.Fleet.PC1AResidency != nil {
			pc1a = pct(*p.Fleet.PC1AResidency)
		}
		t.add(
			fmt.Sprintf("%d", p.Servers),
			p.Policy,
			fmt.Sprintf("%.1fus", p.Fleet.P50Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P99Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P999Latency*1e6),
			fmt.Sprintf("%.1fW", p.Fleet.TotalWatts),
			fmt.Sprintf("%.2f", wattsPerKQPS(p.Fleet)),
			pc1a,
			fmt.Sprintf("%d", p.Fleet.Dropped),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// WriteCSV implements CSVWriter.
func (r *ClusterScalingResult) WriteCSV(w io.Writer) error {
	return writeClusterCSV(w, r.Points)
}

// ClusterPolicyResult is the cluster-policy artifact.
type ClusterPolicyResult struct {
	Servers      int            `json:"servers"`
	AggregateQPS float64        `json:"aggregate_qps"`
	Burstiness   float64        `json:"burstiness"`
	Duration     sim.Duration   `json:"duration_ns"`
	Points       []ClusterPoint `json:"points"`
}

// ClusterPolicy duels the routing policies on one bursty Memcached fleet
// of DefaultClusterPolicyServers machines.
func ClusterPolicy(opt Options, policies []cluster.Policy) (*ClusterPolicyResult, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("cluster-policy: no policies")
	}
	specFn := func() workload.Spec {
		return workload.MemcachedBursty(DefaultClusterPolicyQPS, DefaultClusterPolicyBurstiness)
	}
	res := &ClusterPolicyResult{
		Servers:      DefaultClusterPolicyServers,
		AggregateQPS: specFn().MeanQPS(),
		Burstiness:   DefaultClusterPolicyBurstiness,
		Duration:     opt.Duration,
	}
	res.Points = SweepWith(opt, policies, newReuse, func(reuse *cluster.GraphReuse, pol cluster.Policy) ClusterPoint {
		return runFleet(reuse, opt, DefaultClusterPolicyServers, pol, specFn)
	})
	return res, nil
}

// Report implements Result.
func (r *ClusterPolicyResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster policy duel: %d servers, bursty Memcached at %.0f aggregate QPS\n",
		r.Servers, r.AggregateQPS)
	t := &table{header: []string{"policy", "p50", "p99", "p99.9", "fleet W", "W/kQPS", "busiest srv", "idlest srv", "PC1A res", "dropped"}}
	for _, p := range r.Points {
		pc1a := "-"
		if p.Fleet.PC1AResidency != nil {
			pc1a = pct(*p.Fleet.PC1AResidency)
		}
		// The per-server routed spread is the visible difference between
		// spreading and packing policies.
		minR, maxR := p.Fleet.Servers[0].Routed, p.Fleet.Servers[0].Routed
		for _, ss := range p.Fleet.Servers[1:] {
			if ss.Routed < minR {
				minR = ss.Routed
			}
			if ss.Routed > maxR {
				maxR = ss.Routed
			}
		}
		t.add(
			p.Policy,
			fmt.Sprintf("%.1fus", p.Fleet.P50Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P99Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P999Latency*1e6),
			fmt.Sprintf("%.1fW", p.Fleet.TotalWatts),
			fmt.Sprintf("%.2f", wattsPerKQPS(p.Fleet)),
			fmt.Sprintf("%d req", maxR),
			fmt.Sprintf("%d req", minR),
			pc1a,
			fmt.Sprintf("%d", p.Fleet.Dropped),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// WriteCSV implements CSVWriter.
func (r *ClusterPolicyResult) WriteCSV(w io.Writer) error {
	return writeClusterCSV(w, r.Points)
}

// pc1aCell renders a PC1A residency for the CSV writers: empty on
// configurations without an APMU.
func pc1aCell(res *float64) string {
	if res == nil {
		return ""
	}
	return fmt.Sprintf("%g", *res)
}

// writeClusterCSV emits the shared fleet series: one aggregate row per
// point followed by its per-server rows (server >= 0), so one file holds
// both granularities.
func writeClusterCSV(w io.Writer, points []ClusterPoint) error {
	if _, err := fmt.Fprintln(w, "servers,policy,server,routed,served,dropped,mean_s,p50_s,p99_s,p999_s,soc_w,dram_w,total_w,w_per_kqps,all_idle,pc1a_residency"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%d,%s,,%d,%d,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%s\n",
			p.Servers, p.Policy, p.Fleet.Generated, p.Fleet.Served, p.Fleet.Dropped,
			p.Fleet.MeanLatency, p.Fleet.P50Latency, p.Fleet.P99Latency, p.Fleet.P999Latency,
			p.Fleet.SoCWatts, p.Fleet.DRAMWatts, p.Fleet.TotalWatts, wattsPerKQPS(p.Fleet),
			p.Fleet.AllIdle, pc1aCell(p.Fleet.PC1AResidency)); err != nil {
			return err
		}
		for _, ss := range p.Fleet.Servers {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%g,,%g,,%g,%g,%g,,%g,%s\n",
				p.Servers, p.Policy, ss.Index, ss.Routed, ss.Served, ss.Dropped,
				ss.MeanLatency, ss.P99Latency,
				ss.SoCWatts, ss.DRAMWatts, ss.TotalWatts,
				ss.AllIdle, pc1aCell(ss.PC1AResidency)); err != nil {
				return err
			}
		}
	}
	return nil
}
