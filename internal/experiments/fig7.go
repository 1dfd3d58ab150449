package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// Fig7Idle reproduces panel (a): idle SoC+DRAM power for the three
// configurations.
type Fig7Idle struct {
	Cshallow float64
	Cdeep    float64
	CPC1A    float64
	// SavingsVsShallow = 1 − CPC1A/Cshallow (paper: 41%).
	SavingsVsShallow float64
}

// Fig7Point is one QPS point of panels (b) and (c).
type Fig7Point struct {
	QPS float64

	// (b) power.
	ShallowWatts float64
	PC1AWatts    float64
	SavingsFrac  float64

	// (c) performance.
	ShallowMean   float64 // seconds
	PC1AMean      float64
	ImpactFrac    float64 // (PC1A − shallow)/shallow
	PC1AEntries   uint64
	PC1AResidency float64
}

// Fig7Result bundles the three panels.
type Fig7Result struct {
	Idle   Fig7Idle
	Points []Fig7Point
}

// DefaultFig7QPS is the swept axis (0 is reported via Idle).
var DefaultFig7QPS = []float64{4000, 10000, 20000, 50000, 100000}

// Paper values.
const (
	PaperFig7IdleSavings = 0.41
	PaperFig7Save4K      = 0.37
	PaperFig7Save50K     = 0.14
	PaperFig7MaxImpact   = 0.001
)

func init() {
	Define(80, "fig7", "PC1A power savings and performance impact (QPS sweep, paper Fig. 7)",
		func(o Options) (Result, error) { return Fig7(o, DefaultFig7QPS), nil })
}

// Fig7 measures PC1A power savings and performance impact on Memcached
// across the given request-rate axis.
func Fig7(opt Options, qpsList []float64) *Fig7Result {
	res := &Fig7Result{}

	// Panel (a): idle systems.
	idlePower := func(kind soc.ConfigKind) float64 {
		s := soc.New(soc.DefaultConfig(kind))
		if kind == soc.Cdeep {
			s.ForceAllCC6()
		} else {
			s.Engine.Run(10 * sim.Millisecond)
		}
		return s.TotalPower()
	}
	res.Idle.Cshallow = idlePower(soc.Cshallow)
	res.Idle.Cdeep = idlePower(soc.Cdeep)
	res.Idle.CPC1A = idlePower(soc.CPC1A)
	res.Idle.SavingsVsShallow = 1 - res.Idle.CPC1A/res.Idle.Cshallow

	// Panels (b) and (c): load sweep.
	res.Points = SweepWith(opt, qpsList, newPair, (*pair).release, func(m *pair, qps float64) Fig7Point {
		spec := workload.Memcached(qps)
		sh := m[0].runPoint(soc.Cshallow, spec, opt, false)
		ap := m[1].runPoint(soc.CPC1A, spec, opt, false)

		p := Fig7Point{
			QPS:          qps,
			ShallowWatts: sh.win.TotalWatts(),
			PC1AWatts:    ap.win.TotalWatts(),
			ShallowMean:  sh.srv.Latencies().Mean(),
			PC1AMean:     ap.srv.Latencies().Mean(),
		}
		p.SavingsFrac = (p.ShallowWatts - p.PC1AWatts) / p.ShallowWatts
		p.ImpactFrac = (p.PC1AMean - p.ShallowMean) / p.ShallowMean
		p.PC1AResidency, p.PC1AEntries, _ = ap.win.PC1A()
		return p
	})
	return res
}

// Report renders the three panels against the paper. It implements Result.
func (r *Fig7Result) Report() string {
	var b strings.Builder
	b.WriteString("Fig 7(a): idle SoC+DRAM power (paper: CPC1A 41% below Cshallow)\n")
	ta := &table{header: []string{"Config", "Idle power", "Paper"}}
	ta.add("Cshallow", Watts(r.Idle.Cshallow), "49.5W")
	ta.add("Cdeep", Watts(r.Idle.Cdeep), "12.5W")
	ta.add("C_PC1A", Watts(r.Idle.CPC1A), "29.1W")
	b.WriteString(ta.String())
	fmt.Fprintf(&b, "C_PC1A saves %s vs Cshallow (paper: 41%%)\n", Pct(r.Idle.SavingsVsShallow))

	b.WriteString("\nFig 7(b): power vs request rate (paper: 37% @4K, 14% @50K)\n")
	tb := &table{header: []string{"QPS", "Cshallow", "C_PC1A", "Savings", "PC1A residency"}}
	for _, p := range r.Points {
		tb.add(fmt.Sprintf("%.0fK", p.QPS/1000),
			Watts(p.ShallowWatts), Watts(p.PC1AWatts),
			Pct(p.SavingsFrac), Pct(p.PC1AResidency))
	}
	b.WriteString(tb.String())

	b.WriteString("\nFig 7(c): average latency impact (paper: <0.1% worst case)\n")
	tc := &table{header: []string{"QPS", "Cshallow mean", "C_PC1A mean", "Impact", "PC1A transitions"}}
	for _, p := range r.Points {
		tc.add(fmt.Sprintf("%.0fK", p.QPS/1000),
			Micros(p.ShallowMean), Micros(p.PC1AMean),
			fmt.Sprintf("%+.4f%%", p.ImpactFrac*100),
			fmt.Sprintf("%d", p.PC1AEntries))
	}
	b.WriteString(tc.String())
	return b.String()
}
