package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// BatchingPoint is one epoch setting of the active-period
// synchronization extension.
type BatchingPoint struct {
	Epoch         sim.Duration
	Watts         float64
	SavingsFrac   float64 // vs Cshallow unbatched
	PC1AResidency float64
	MeanLatency   float64
	P99Latency    float64
	LatencyCost   float64 // mean vs unbatched CPC1A
}

// BatchingResult evaluates the extension the paper's Sec. 8 calls
// additive to APC: delaying dispatch to epoch boundaries so that cores
// are active together and idle together, lengthening full-system-idle
// periods and therefore PC1A residency — at a bounded latency cost.
type BatchingResult struct {
	QPS           float64
	ShallowWatts  float64
	UnbatchedMean float64
	Points        []BatchingPoint
}

// DefaultBatchingQPS is the fixed Memcached load of the epoch sweep.
const DefaultBatchingQPS = 50000

// DefaultBatchingEpochs is the swept epoch axis; 0 is the unbatched
// reference point.
var DefaultBatchingEpochs = []sim.Duration{0, 20 * sim.Microsecond, 50 * sim.Microsecond, 100 * sim.Microsecond}

func init() {
	Define(130, "batching", "epoch-aligned dispatch extension (epoch sweep, paper Sec. 8)",
		func(o Options) (Result, error) { return Batching(o, DefaultBatchingQPS, DefaultBatchingEpochs), nil })
}

// Batching sweeps the epoch length at a fixed Memcached load.
func Batching(opt Options, qps float64, epochs []sim.Duration) *BatchingResult {
	spec := workload.Memcached(qps)
	res := &BatchingResult{QPS: qps}

	res.ShallowWatts = shallowWatts(spec, opt)

	// Each epoch point is an independent run; the cross-point
	// fractions (vs Cshallow, vs the unbatched epoch) are derived
	// afterwards in point order.
	res.Points = SweepWith(opt, epochs, newMachine, (*machine).release, func(m *machine, epoch sim.Duration) BatchingPoint {
		scfg := server.DefaultConfig()
		scfg.BatchEpoch = epoch
		g, srv := m.fleet(soc.DefaultConfig(soc.CPC1A), scfg, spec, opt)
		g.Run(opt.Warmup())
		win := srv.System().OpenWindow()
		g.Run(opt.Duration)

		p := BatchingPoint{
			Epoch:       epoch,
			Watts:       win.TotalWatts(),
			MeanLatency: srv.Latencies().Mean(),
			P99Latency:  srv.Latencies().Quantile(0.99),
		}
		p.PC1AResidency, _, _ = win.PC1A()
		return p
	})
	for i := range res.Points {
		p := &res.Points[i]
		p.SavingsFrac = (res.ShallowWatts - p.Watts) / res.ShallowWatts
		if p.Epoch == 0 {
			res.UnbatchedMean = p.MeanLatency
		}
		if res.UnbatchedMean > 0 {
			p.LatencyCost = (p.MeanLatency - res.UnbatchedMean) / res.UnbatchedMean
		}
	}
	return res
}

// Report renders the sweep. It implements Result.
func (r *BatchingResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: epoch-aligned dispatch (active-period sync) at %.0f QPS\n", r.QPS)
	fmt.Fprintf(&b, "(paper Sec. 8: synchronizing active/idle periods across cores is additive to APC)\n")
	t := &table{header: []string{"Epoch", "Power", "Savings vs Cshallow", "PC1A residency", "Mean lat", "p99", "Lat cost"}}
	for _, p := range r.Points {
		name := "off"
		if p.Epoch > 0 {
			name = p.Epoch.String()
		}
		t.add(name, Watts(p.Watts), Pct(p.SavingsFrac), Pct(p.PC1AResidency),
			Micros(p.MeanLatency), Micros(p.P99Latency), fmt.Sprintf("%+.1f%%", p.LatencyCost*100))
	}
	b.WriteString(t.String())
	return b.String()
}
