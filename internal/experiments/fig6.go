package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// Fig6Point is one QPS point of paper Fig. 6: core C-state residency and
// the PC1A opportunity on the Cshallow baseline.
type Fig6Point struct {
	QPS float64

	// (a) average per-core residencies.
	CC0Residency float64
	CC1Residency float64

	// (b) PC1A opportunity: true and SoCWatch-censored (≥10 µs) all-idle
	// fraction.
	AllIdleTrue     float64
	AllIdleCensored float64

	// (c) idle-period length distribution.
	IdlePeriods      uint64
	FracIn20To200us  float64
	IdleP50, IdleP90 float64 // seconds
}

// Fig6Result is the sweep plus the low-load distribution detail.
type Fig6Result struct {
	Points []Fig6Point
}

// DefaultFig6QPS is the paper's low-load x-axis.
var DefaultFig6QPS = []float64{4000, 10000, 20000, 50000, 100000}

func init() {
	Define(70, "fig6", "PC1A opportunity: residencies and idle periods (QPS sweep, paper Fig. 6)",
		func(o Options) (Result, error) { return Fig6(o, DefaultFig6QPS), nil })
}

// Fig6 measures the PC1A opportunity on the Cshallow baseline across
// the given request-rate axis.
func Fig6(opt Options, qpsList []float64) *Fig6Result {
	res := &Fig6Result{}
	res.Points = SweepWith(opt, qpsList, newMachine, (*machine).release, func(m *machine, qps float64) Fig6Point {
		run := m.runPoint(soc.Cshallow, workload.Memcached(qps), opt, true)
		h := run.tracer.IdlePeriods()
		p := Fig6Point{
			QPS:             qps,
			CC0Residency:    run.win.Residency(cpu.CC0),
			CC1Residency:    run.win.Residency(cpu.CC1),
			IdlePeriods:     run.tracer.IdlePeriodCount(),
			FracIn20To200us: h.FractionBetween(20e-6, 200e-6),
			IdleP50:         h.Quantile(0.50),
			IdleP90:         h.Quantile(0.90),
		}
		p.AllIdleTrue, p.AllIdleCensored = run.win.AllIdle()
		return p
	})
	return res
}

// Report renders all three panels. It implements Result.
func (r *Fig6Result) Report() string {
	var b strings.Builder
	b.WriteString("Fig 6(a): core C-state residency, Cshallow (paper: CC1 76-98% at <=100K QPS)\n")
	ta := &table{header: []string{"QPS", "CC0", "CC1"}}
	for _, p := range r.Points {
		ta.add(fmt.Sprintf("%.0fK", p.QPS/1000), Pct(p.CC0Residency), Pct(p.CC1Residency))
	}
	b.WriteString(ta.String())

	b.WriteString("\nFig 6(b): PC1A residency opportunity (paper, censored: 77% @4K, 20% @50K, >=12% @<=100K)\n")
	tb := &table{header: []string{"QPS", "all-idle (true)", "all-idle (SoCWatch >=10us)", "idle periods"}}
	for _, p := range r.Points {
		tb.add(fmt.Sprintf("%.0fK", p.QPS/1000), Pct(p.AllIdleTrue), Pct(p.AllIdleCensored),
			fmt.Sprintf("%d", p.IdlePeriods))
	}
	b.WriteString(tb.String())

	b.WriteString("\nFig 6(c): fully-idle period lengths (paper: at low load ~60% in 20-200us)\n")
	tc := &table{header: []string{"QPS", "frac 20-200us", "p50", "p90"}}
	for _, p := range r.Points {
		tc.add(fmt.Sprintf("%.0fK", p.QPS/1000), Pct(p.FracIn20To200us),
			Micros(p.IdleP50), Micros(p.IdleP90))
	}
	b.WriteString(tc.String())
	return b.String()
}
