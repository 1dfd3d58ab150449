package experiments

// drain-hysteresis closes the loop the rack-packing golden opened: flat
// packing buys deep PC1A at a multiple of the tail, because the packing
// frontier *flaps* — the last packed server is abandoned after every
// burst and re-admitted by the next one, so its idle periods never grow
// long. The experiment sweeps the hysteretic drain hold (DESIGN.md §7)
// on one bursty racked fleet for both cap-based policies: hold 0 is the
// static PR 4 baseline byte for byte, and each longer hold trades tail
// latency for consolidated idleness on the drained members. The
// per-server tables carry the acceptance signal: the frontier servers'
// PC1A residency at hold > 0 versus their flapping selves at hold 0.

import (
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// Defaults for the drain-hysteresis experiment, exported so callers can
// rerun the registered artifact programmatically with explicit holds.
var (
	// DefaultDrainHolds is the swept hysteresis hold: the static
	// baseline plus three decades of consolidation.
	DefaultDrainHolds = []sim.Duration{
		0, 200 * sim.Microsecond, 1000 * sim.Microsecond, 5000 * sim.Microsecond,
	}
	// DefaultDrainPolicies duels the member-granular packer against the
	// rack-first one on every hold.
	DefaultDrainPolicies = []cluster.Policy{cluster.PowerAware, cluster.RackPowerAware}
	// DefaultDrainTopology is the fleet shape: two racks of four, the
	// rack-packing duel's first shape, so rack_power_aware has a remote
	// power zone to keep dark.
	DefaultDrainTopology = cluster.Topology{Racks: 2, ServersPerRack: 4}
)

// Fixed operating point of the drain-hysteresis sweep.
const (
	// DefaultDrainAggregateQPS and DefaultDrainBurstiness fix the
	// bursty stream at half the rack-packing rate: bursty enough that
	// the packing frontier moves, light enough that short holds only
	// deepen queues the p99 budget already covers — which is what lets
	// the 200 µs hold consolidate idleness at equal-or-better p99.
	DefaultDrainAggregateQPS = 300000.0
	DefaultDrainBurstiness   = DefaultRackBurstiness
	// DefaultDrainTorLatency matches the rack-packing ToR hop.
	DefaultDrainTorLatency = DefaultRackTorLatency
	// DefaultDrainP99Target is the packing budget; holds are swept
	// against the same target the static baseline packs to.
	DefaultDrainP99Target = DefaultClusterP99Target
)

func init() {
	Define(180, "drain-hysteresis",
		"hysteretic drain hold sweep: power_aware vs rack_power_aware on a bursty racked fleet",
		func(o Options) (Result, error) { return DrainHysteresis(o, DefaultDrainHolds) })
}

// DrainPoint is one measured (policy, hold) operating point.
type DrainPoint struct {
	Policy string `json:"policy"`
	// HoldUS is the hysteretic drain hold in microseconds (0 = the
	// static baseline).
	HoldUS float64             `json:"hold_us"`
	Fleet  cluster.Measurement `json:"fleet"`
}

// drainedPC1A averages PC1A residency over the members the controller
// actually drained (drains > 0); ok is false when no member was (the
// hold-0 baseline).
func (p DrainPoint) drainedPC1A() (mean float64, n int, ok bool) {
	for _, ss := range p.Fleet.Servers {
		if ss.Drains == 0 || ss.PC1AResidency == nil {
			continue
		}
		mean += *ss.PC1AResidency
		n++
	}
	if n == 0 {
		return 0, 0, false
	}
	return mean / float64(n), n, true
}

// DrainHysteresisResult is the drain-hysteresis artifact.
type DrainHysteresisResult struct {
	AggregateQPS float64      `json:"aggregate_qps"`
	Burstiness   float64      `json:"burstiness"`
	Topology     string       `json:"topology"`
	P99Target    sim.Duration `json:"p99_target_ns"`
	TorLatency   sim.Duration `json:"tor_latency_ns"`
	Duration     sim.Duration `json:"duration_ns"`
	Points       []DrainPoint `json:"points"`
}

// DrainHysteresis evaluates both cap-based policies at every hold under
// one fixed bursty aggregate Memcached rate. Each (policy, hold) pair
// is an independent fleet on its own engine, so points fan out through
// the §2 worker pool like any other sweep.
func DrainHysteresis(opt Options, holds []sim.Duration) (*DrainHysteresisResult, error) {
	if len(holds) == 0 {
		return nil, fmt.Errorf("drain-hysteresis: no holds")
	}
	for _, h := range holds {
		if h < 0 {
			return nil, fmt.Errorf("drain-hysteresis: negative hold %v", h)
		}
	}
	specFn := func() workload.Spec {
		return workload.MemcachedBursty(DefaultDrainAggregateQPS, DefaultDrainBurstiness)
	}
	type pt struct {
		pol  cluster.Policy
		hold sim.Duration
	}
	var pts []pt
	for _, pol := range DefaultDrainPolicies {
		for _, h := range holds {
			pts = append(pts, pt{pol: pol, hold: h})
		}
	}
	res := &DrainHysteresisResult{
		AggregateQPS: specFn().MeanQPS(),
		Burstiness:   DefaultDrainBurstiness,
		Topology:     DefaultDrainTopology.String(),
		P99Target:    DefaultDrainP99Target,
		TorLatency:   DefaultDrainTorLatency,
		Duration:     opt.Duration,
	}
	res.Points = SweepWith(opt, pts, newReuse, func(reuse *cluster.GraphReuse, p pt) DrainPoint {
		return DrainPoint{
			Policy: p.pol.String(),
			HoldUS: p.hold.Seconds() * 1e6,
			Fleet: measureFleet(reuse, opt, cluster.Config{
				Policy:     p.pol,
				P99Target:  DefaultDrainP99Target,
				Topology:   DefaultDrainTopology,
				TorLatency: DefaultDrainTorLatency,
				DrainHold:  p.hold,
			}, specFn),
		}
	})
	return res, nil
}

// Report implements Result.
func (r *DrainHysteresisResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drain hysteresis: bursty %.0f aggregate QPS Memcached on a %s fleet, %v p99 target\n",
		r.AggregateQPS, r.Topology, r.P99Target)
	b.WriteString("(hold 0 = the static cap baseline; drained members take no traffic until empty + hold)\n")
	t := &table{header: []string{"policy", "hold", "p50", "p99", "p99.9", "fleet W", "W/kQPS", "PC1A res", "drained PC1A", "drains", "dropped"}}
	for _, p := range r.Points {
		pc1a := "-"
		if p.Fleet.PC1AResidency != nil {
			pc1a = pct(*p.Fleet.PC1AResidency)
		}
		drained := "-"
		if mean, n, ok := p.drainedPC1A(); ok {
			drained = fmt.Sprintf("%s/%dsrv", pct(mean), n)
		}
		t.add(
			p.Policy,
			fmt.Sprintf("%.0fus", p.HoldUS),
			fmt.Sprintf("%.1fus", p.Fleet.P50Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P99Latency*1e6),
			fmt.Sprintf("%.1fus", p.Fleet.P999Latency*1e6),
			fmt.Sprintf("%.1fW", p.Fleet.TotalWatts),
			fmt.Sprintf("%.2f", wattsPerKQPS(p.Fleet)),
			pc1a,
			drained,
			fmt.Sprintf("%d", p.Fleet.Drains),
			fmt.Sprintf("%d", p.Fleet.Dropped),
		)
	}
	b.WriteString(t.String())

	// Per-server tables: the frontier's flap at hold 0 versus its
	// consolidated idleness at hold > 0 is a per-server story.
	for _, p := range r.Points {
		fmt.Fprintf(&b, "\nper-server [%s hold=%.0fus]:\n", p.Policy, p.HoldUS)
		st := &table{header: []string{"server", "rack", "routed", "drains", "p99", "total", "all-idle", "PC1A res"}}
		for _, ss := range p.Fleet.Servers {
			pc1a := "-"
			if ss.PC1AResidency != nil {
				pc1a = pct(*ss.PC1AResidency)
			}
			st.add(
				fmt.Sprintf("%d", ss.Index),
				fmt.Sprintf("%d", ss.Rack),
				fmt.Sprintf("%d", ss.Routed),
				fmt.Sprintf("%d", ss.Drains),
				fmt.Sprintf("%.1fus", ss.P99Latency*1e6),
				fmt.Sprintf("%.1fW", ss.TotalWatts),
				pct(ss.AllIdle),
				pc1a,
			)
		}
		b.WriteString(st.String())
	}
	return b.String()
}

// WriteCSV implements CSVWriter: one aggregate row per point (server
// cell empty) followed by its per-server rows, so one file holds both
// granularities like the other cluster CSVs.
func (r *DrainHysteresisResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,hold_us,server,rack,routed,served,drains,dropped,mean_s,p99_s,p999_s,soc_w,dram_w,total_w,all_idle,pc1a_residency"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%g,,,%d,%d,%d,%d,%g,%g,%g,%g,%g,%g,%g,%s\n",
			p.Policy, p.HoldUS,
			p.Fleet.Generated, p.Fleet.Served, p.Fleet.Drains, p.Fleet.Dropped,
			p.Fleet.MeanLatency, p.Fleet.P99Latency, p.Fleet.P999Latency,
			p.Fleet.SoCWatts, p.Fleet.DRAMWatts, p.Fleet.TotalWatts,
			p.Fleet.AllIdle, pc1aCell(p.Fleet.PC1AResidency)); err != nil {
			return err
		}
		for _, ss := range p.Fleet.Servers {
			if _, err := fmt.Fprintf(w, "%s,%g,%d,%d,%d,%d,%d,%d,%g,%g,,%g,%g,%g,%g,%s\n",
				p.Policy, p.HoldUS, ss.Index, ss.Rack,
				ss.Routed, ss.Served, ss.Drains, ss.Dropped,
				ss.MeanLatency, ss.P99Latency,
				ss.SoCWatts, ss.DRAMWatts, ss.TotalWatts,
				ss.AllIdle, pc1aCell(ss.PC1AResidency)); err != nil {
				return err
			}
		}
	}
	return nil
}
