package experiments

// fault-resilience stresses the routing policies the previous cluster
// experiments tuned for power: when servers start crashing, does the
// packed fleet break or bend? The experiment sweeps crash MTBF from
// "never" down to one failure per 5 ms of virtual time on one bursty
// racked fleet, for round_robin (load spread wide, every crash loses a
// thin slice), power_aware and rack_power_aware (load packed tight,
// every crash of a frontier server loses a thick one). All points run
// with the same robustness envelope — bounded-retry timeouts and one
// hedged copy — so the sweep isolates the injection rate. The
// acceptance signal is the goodput and failure columns: retries and
// hedging must hold OK near Generated while crashes climb, and the
// conservation invariant OK + Failed + Shed = Generated holds on every
// row (DESIGN.md §8).

import (
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// Defaults for the fault-resilience experiment, exported so callers can
// rerun the registered artifact programmatically with explicit rates.
var (
	// DefaultFaultMTBFs is the swept crash rate: a no-fault baseline,
	// then three escalating failure rates. At 100 ms windows even the
	// gentlest rate crashes each server about twice.
	DefaultFaultMTBFs = []sim.Duration{
		0, 50 * sim.Millisecond, 20 * sim.Millisecond, 5 * sim.Millisecond,
	}
	// DefaultFaultPolicies duels the spread baseline against both
	// cap-based packers.
	DefaultFaultPolicies = []cluster.Policy{
		cluster.RoundRobin, cluster.PowerAware, cluster.RackPowerAware,
	}
	// DefaultFaultTopology matches the drain-hysteresis fleet: two
	// racks of four, so the packers have a remote zone to pack away
	// from and crashes can hit the packed frontier.
	DefaultFaultTopology = cluster.Topology{Racks: 2, ServersPerRack: 4}
)

// Fixed operating point and robustness envelope of the sweep.
const (
	// DefaultFaultAggregateQPS and DefaultFaultBurstiness reuse the
	// drain-hysteresis stream: bursty enough that a crash lands on a
	// loaded server, light enough that the survivors can absorb the
	// retried work.
	DefaultFaultAggregateQPS = DefaultDrainAggregateQPS
	DefaultFaultBurstiness   = DefaultDrainBurstiness
	// DefaultFaultTorLatency and DefaultFaultP99Target match the other
	// cluster experiments.
	DefaultFaultTorLatency = DefaultRackTorLatency
	DefaultFaultP99Target  = DefaultClusterP99Target
	// DefaultFaultMTTR is the mean repair time: long enough that a
	// crash visibly dents the fleet, short enough that every point
	// measures several full fail/repair cycles.
	DefaultFaultMTTR = 2 * sim.Millisecond
	// DefaultFaultTimeout and DefaultFaultRetries bound how long a
	// request chases a dead server: the timeout sits well above the
	// healthy p99, so it only fires on genuine loss.
	DefaultFaultTimeout = 2 * sim.Millisecond
	DefaultFaultRetries = 2
	// DefaultFaultHedgeDelay arms the hedged copy an order of
	// magnitude above the healthy p50 — cheap insurance that only pays
	// when the first copy is stuck on a dying machine.
	DefaultFaultHedgeDelay = 500 * sim.Microsecond
)

func init() {
	Define(190, "fault-resilience",
		"crash MTBF sweep under retries+hedging: round_robin vs power_aware vs rack_power_aware",
		func(o Options) (Result, error) { return FaultResilience(o, DefaultFaultMTBFs) })
}

// FaultPoint is one measured (policy, MTBF) operating point.
type FaultPoint struct {
	Policy string `json:"policy"`
	// MTBFUS is the per-server mean time between crashes in
	// microseconds (0 = no injection; the baseline still runs with the
	// timeout/retry/hedge envelope attached).
	MTBFUS float64             `json:"mtbf_us"`
	Fleet  cluster.Measurement `json:"fleet"`
}

// FaultResilienceResult is the fault-resilience artifact.
type FaultResilienceResult struct {
	AggregateQPS float64      `json:"aggregate_qps"`
	Burstiness   float64      `json:"burstiness"`
	Topology     string       `json:"topology"`
	P99Target    sim.Duration `json:"p99_target_ns"`
	MTTR         sim.Duration `json:"mttr_ns"`
	Timeout      sim.Duration `json:"request_timeout_ns"`
	MaxRetries   int          `json:"max_retries"`
	HedgeDelay   sim.Duration `json:"hedge_delay_ns"`
	Duration     sim.Duration `json:"duration_ns"`
	Points       []FaultPoint `json:"points"`
}

// FaultResilience evaluates every policy at every crash MTBF under one
// fixed bursty aggregate Memcached rate and one fixed robustness
// envelope. Each (policy, MTBF) pair is an independent fleet on its own
// engine, so points fan out through the §2 worker pool like any other
// sweep.
func FaultResilience(opt Options, mtbfs []sim.Duration) (*FaultResilienceResult, error) {
	if len(mtbfs) == 0 {
		return nil, fmt.Errorf("fault-resilience: no MTBF values")
	}
	for _, m := range mtbfs {
		if m < 0 {
			return nil, fmt.Errorf("fault-resilience: negative MTBF %v", m)
		}
	}
	specFn := func() workload.Spec {
		return workload.MemcachedBursty(DefaultFaultAggregateQPS, DefaultFaultBurstiness)
	}
	type pt struct {
		pol  cluster.Policy
		mtbf sim.Duration
	}
	var pts []pt
	for _, pol := range DefaultFaultPolicies {
		for _, m := range mtbfs {
			pts = append(pts, pt{pol: pol, mtbf: m})
		}
	}
	res := &FaultResilienceResult{
		AggregateQPS: specFn().MeanQPS(),
		Burstiness:   DefaultFaultBurstiness,
		Topology:     DefaultFaultTopology.String(),
		P99Target:    DefaultFaultP99Target,
		MTTR:         DefaultFaultMTTR,
		Timeout:      DefaultFaultTimeout,
		MaxRetries:   DefaultFaultRetries,
		HedgeDelay:   DefaultFaultHedgeDelay,
		Duration:     opt.Duration,
	}
	res.Points = SweepWith(opt, pts, newReuse, func(reuse *cluster.GraphReuse, p pt) FaultPoint {
		return FaultPoint{
			Policy: p.pol.String(),
			MTBFUS: p.mtbf.Seconds() * 1e6,
			Fleet: measureFleet(reuse, opt, cluster.Config{
				Policy:     p.pol,
				P99Target:  DefaultFaultP99Target,
				Topology:   DefaultFaultTopology,
				TorLatency: DefaultFaultTorLatency,
				Faults: cluster.FaultConfig{
					MTBF:           p.mtbf,
					MTTR:           DefaultFaultMTTR,
					RequestTimeout: DefaultFaultTimeout,
					MaxRetries:     DefaultFaultRetries,
					HedgeDelay:     DefaultFaultHedgeDelay,
				},
			}, specFn),
		}
	})
	return res, nil
}

// mtbfCell renders the swept rate ("-" for the no-injection baseline).
func mtbfCell(us float64) string {
	if us == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fus", us)
}

// Report implements Result.
func (r *FaultResilienceResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault resilience: bursty %.0f aggregate QPS Memcached on a %s fleet, crash MTTR %v\n",
		r.AggregateQPS, r.Topology, r.MTTR)
	fmt.Fprintf(&b, "(timeout %v, %d retries, hedge after %v; OK + failed + shed = generated on every row)\n",
		r.Timeout, r.MaxRetries, r.HedgeDelay)
	t := &table{header: []string{"policy", "mtbf", "goodput", "p99", "ok", "failed", "retried", "hedged", "shed", "crashes", "rec p99", "fleet W"}}
	for _, p := range r.Points {
		rec := "-"
		if p.Fleet.RecoveryP99 > 0 {
			rec = fmt.Sprintf("%.1fus", p.Fleet.RecoveryP99*1e6)
		}
		t.add(
			p.Policy,
			mtbfCell(p.MTBFUS),
			fmt.Sprintf("%.0f", p.Fleet.GoodputQPS),
			fmt.Sprintf("%.1fus", p.Fleet.P99Latency*1e6),
			fmt.Sprintf("%d", p.Fleet.OK),
			fmt.Sprintf("%d", p.Fleet.Failed),
			fmt.Sprintf("%d", p.Fleet.Retried),
			fmt.Sprintf("%d", p.Fleet.Hedged),
			fmt.Sprintf("%d", p.Fleet.Shed),
			fmt.Sprintf("%d", p.Fleet.Crashes),
			rec,
			fmt.Sprintf("%.1fW", p.Fleet.TotalWatts),
		)
	}
	b.WriteString(t.String())

	// Per-server tables for the stormiest MTBF only: where the crashes
	// landed and who absorbed the retried work is a per-server story,
	// but one table per point would drown the sweep.
	worst := r.Points
	if len(r.Points) > 0 {
		maxM := 0.0
		for _, p := range r.Points {
			if p.MTBFUS > maxM {
				maxM = p.MTBFUS
			}
		}
		if maxM > 0 {
			worst = worst[:0:0]
			for _, p := range r.Points {
				if p.MTBFUS == maxM {
					worst = append(worst, p)
				}
			}
		} else {
			worst = nil
		}
	}
	for _, p := range worst {
		fmt.Fprintf(&b, "\nper-server [%s mtbf=%s]:\n", p.Policy, mtbfCell(p.MTBFUS))
		st := &table{header: []string{"server", "rack", "routed", "ok", "failed", "crashes", "p99", "total"}}
		for _, ss := range p.Fleet.Servers {
			st.add(
				fmt.Sprintf("%d", ss.Index),
				fmt.Sprintf("%d", ss.Rack),
				fmt.Sprintf("%d", ss.Routed),
				fmt.Sprintf("%d", ss.OK),
				fmt.Sprintf("%d", ss.Failed),
				fmt.Sprintf("%d", ss.Crashes),
				fmt.Sprintf("%.1fus", ss.P99Latency*1e6),
				fmt.Sprintf("%.1fW", ss.TotalWatts),
			)
		}
		b.WriteString(st.String())
	}
	return b.String()
}

// WriteCSV implements CSVWriter: one aggregate row per point (server
// cell empty) followed by its per-server rows, the same shape as the
// other cluster CSVs.
func (r *FaultResilienceResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,mtbf_us,server,rack,generated,routed,ok,failed,retried,hedged,shed,crashes,goodput_qps,mean_s,p99_s,recovery_p99_s,total_w"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%g,,,%d,,%d,%d,%d,%d,%d,%d,%g,%g,%g,%g,%g\n",
			p.Policy, p.MTBFUS,
			p.Fleet.Generated, p.Fleet.OK, p.Fleet.Failed,
			p.Fleet.Retried, p.Fleet.Hedged, p.Fleet.Shed, p.Fleet.Crashes,
			p.Fleet.GoodputQPS, p.Fleet.MeanLatency, p.Fleet.P99Latency,
			p.Fleet.RecoveryP99, p.Fleet.TotalWatts); err != nil {
			return err
		}
		for _, ss := range p.Fleet.Servers {
			if _, err := fmt.Fprintf(w, "%s,%g,%d,%d,,%d,%d,%d,%d,%d,,%d,,%g,%g,,%g\n",
				p.Policy, p.MTBFUS, ss.Index, ss.Rack,
				ss.Routed, ss.OK, ss.Failed, ss.Retried, ss.Hedged, ss.Crashes,
				ss.MeanLatency, ss.P99Latency, ss.TotalWatts); err != nil {
				return err
			}
		}
	}
	return nil
}
