package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/ios"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// RemotePoint is one remote-traffic rate.
type RemotePoint struct {
	SnoopRate     float64 // UPI transactions per second from the peer socket
	PC1AResidency float64
	PC1AEntries   uint64
	Watts         float64
	SavingsFrac   float64 // vs Cshallow at the same load
}

// RemoteResult studies a deployment caveat the paper leaves implicit:
// PC1A requires the *whole socket's* IO to quiesce, so on a two-socket
// node, coherence/snoop traffic arriving over UPI from the peer socket
// wakes the package even when the local cores are idle. This sweep
// quantifies how fast the PC1A opportunity erodes with remote traffic.
type RemoteResult struct {
	QPS    float64
	Points []RemotePoint
}

// DefaultRemoteQPS is the fixed local load of the snoop-rate sweep.
const DefaultRemoteQPS = 20000

// DefaultRemoteRates is the swept peer-socket UPI transaction-rate axis.
var DefaultRemoteRates = []float64{0, 1000, 10000, 50000, 200000}

func init() {
	Define(140, "remote", "PC1A erosion under peer-socket UPI traffic (snoop-rate sweep)",
		func(o Options) (Result, error) { return Remote(o, DefaultRemoteQPS, DefaultRemoteRates), nil })
}

// Remote sweeps the peer-socket UPI transaction rate at a fixed local
// load.
func Remote(opt Options, qps float64, rates []float64) *RemoteResult {
	spec := workload.Memcached(qps)
	res := &RemoteResult{QPS: qps}

	shW := shallowWatts(spec, opt)

	res.Points = SweepWith(opt, rates, newMachine, (*machine).release, func(m *machine, rate float64) RemotePoint {
		g, srv := m.fleet(soc.DefaultConfig(soc.CPC1A), server.DefaultConfig(), spec, opt)
		sys := srv.System()
		if rate > 0 {
			armSnoops(sys, rate, opt.Seed+99)
		}
		g.Run(opt.Warmup())
		win := sys.OpenWindow()
		g.Run(opt.Duration)

		p := RemotePoint{SnoopRate: rate, Watts: win.TotalWatts()}
		p.PC1AResidency, p.PC1AEntries, _ = win.PC1A()
		p.SavingsFrac = (shW - p.Watts) / shW
		return p
	})
	return res
}

// armSnoops injects Poisson UPI transactions (remote snoops / remote
// memory reads) on the first UPI link, each also touching local DRAM.
func armSnoops(sys *soc.System, rate float64, seed uint64) {
	rng := stats.NewRNG(seed)
	var upi *ios.Link
	for _, l := range sys.Links {
		if l.Kind() == ios.UPI {
			upi = l
			break
		}
	}
	end := sim.Func(upi.EndTransaction)
	var next sim.Func
	next = func() {
		upi.StartTransaction()
		// Snoop service: link transfer plus an LLC/DRAM lookup.
		sys.MemAccess(1)
		sys.Engine.Schedule(200*sim.Nanosecond, end)
		gap := sim.Duration(rng.ExpFloat64() / rate * float64(sim.Second))
		sys.Engine.Schedule(gap, next)
	}
	sys.Engine.Schedule(sim.Duration(rng.ExpFloat64()/rate*float64(sim.Second)), next)
}

// Report renders the sweep. It implements Result.
func (r *RemoteResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Deployment study: PC1A vs peer-socket UPI traffic (local load %.0f QPS)\n", r.QPS)
	t := &table{header: []string{"Remote rate", "PC1A residency", "PC1A entries", "Power", "Savings vs Cshallow"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%.0f/s", p.SnoopRate), Pct(p.PC1AResidency),
			fmt.Sprintf("%d", p.PC1AEntries), Watts(p.Watts), Pct(p.SavingsFrac))
	}
	b.WriteString(t.String())
	b.WriteString("PC1A needs whole-socket IO quiescence, but each wake costs only ~0.5us,\n")
	b.WriteString("so even heavy remote traffic erodes the opportunity slowly — the agility\n")
	b.WriteString("bounds the damage where PC6 would lose everything.\n")
	return b.String()
}
