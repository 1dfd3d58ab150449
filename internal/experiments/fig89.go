package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// WorkloadPoint is one load level of paper Fig. 8 (MySQL) or Fig. 9
// (Kafka): baseline residencies, the projected PC1A residency, and the
// measured power reduction of the CPC1A configuration.
type WorkloadPoint struct {
	Label string
	Load  float64
	QPS   float64

	// Cshallow baseline.
	CC0Residency    float64
	CC1Residency    float64
	AllIdleTrue     float64
	AllIdleCensored float64

	// CPC1A vs Cshallow.
	ShallowWatts   float64
	PC1AWatts      float64
	PowerReduction float64

	// Latency impact per the paper's performance model (Sec. 6):
	// (PC1A transitions × 200 ns × mean cores active after idle) spread
	// over all requests. Paper: negligible, <0.01% for both workloads.
	ImpactFrac float64
}

// WorkloadResult is a set of points for one service.
type WorkloadResult struct {
	Service string
	Points  []WorkloadPoint
	// IdleReduction is the fully idle server reduction (paper: 41%).
	IdleReduction float64
}

func init() {
	Define(90, "fig8", "MySQL residency and power reduction (load sweep, paper Fig. 8)",
		func(o Options) (Result, error) { return Fig8(o), nil })
	Define(100, "fig9", "Kafka residency and power reduction (load sweep, paper Fig. 9)",
		func(o Options) (Result, error) { return Fig9(o), nil })
}

// Fig8 evaluates MySQL at the paper's low/mid/high loads (8%, 16%, 42%).
func Fig8(opt Options) *WorkloadResult {
	return workloadFigure(opt, "MySQL", []workloadLevel{
		{"low", 0.08}, {"mid", 0.16}, {"high", 0.42},
	}, func(load float64) workload.Spec { return workload.MySQL(load, 10) })
}

// Fig9 evaluates Kafka at the paper's low/high loads (8%, 16%).
func Fig9(opt Options) *WorkloadResult {
	return workloadFigure(opt, "Kafka", []workloadLevel{
		{"low", 0.08}, {"high", 0.16},
	}, func(load float64) workload.Spec { return workload.Kafka(load, 10) })
}

type workloadLevel struct {
	label string
	load  float64
}

func workloadFigure(opt Options, service string, levels []workloadLevel, mk func(float64) workload.Spec) *WorkloadResult {
	res := &WorkloadResult{Service: service}
	res.Points = SweepWith(opt, levels, newPair, (*pair).release, func(m *pair, lv workloadLevel) WorkloadPoint {
		spec := mk(lv.load)
		sh := m[0].runPoint(soc.Cshallow, spec, opt, false)
		ap := m[1].runPoint(soc.CPC1A, spec, opt, true)
		p := WorkloadPoint{
			Label:        lv.label,
			Load:         lv.load,
			QPS:          spec.MeanQPS(),
			CC0Residency: sh.win.Residency(cpu.CC0),
			CC1Residency: sh.win.Residency(cpu.CC1),
			ShallowWatts: sh.win.TotalWatts(),
			PC1AWatts:    ap.win.TotalWatts(),
		}
		p.AllIdleTrue, p.AllIdleCensored = sh.win.AllIdle()
		p.PowerReduction = (p.ShallowWatts - p.PC1AWatts) / p.ShallowWatts
		p.ImpactFrac = modelImpact(&ap, sh.srv.Latencies().Mean())
		return p
	})

	// Fully idle server.
	idle := func(kind soc.ConfigKind) float64 {
		s := soc.New(soc.DefaultConfig(kind))
		s.Engine.Run(10 * sim.Millisecond)
		return s.TotalPower()
	}
	shallowIdle := idle(soc.Cshallow)
	res.IdleReduction = 1 - idle(soc.CPC1A)/shallowIdle
	return res
}

// Report renders both panels of the figure. It implements Result.
func (r *WorkloadResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s evaluation (paper Fig. 8/9)\n", r.Service)
	fmt.Fprintf(&b, "(a) residency, Cshallow baseline:\n")
	ta := &table{header: []string{"Load", "QPS", "CC0", "CC1", "all-idle (true)", "all-idle (censored)"}}
	for _, p := range r.Points {
		ta.add(fmt.Sprintf("%s (%s)", p.Label, Pct(p.Load)),
			fmt.Sprintf("%.0f", p.QPS),
			Pct(p.CC0Residency), Pct(p.CC1Residency),
			Pct(p.AllIdleTrue), Pct(p.AllIdleCensored))
	}
	b.WriteString(ta.String())

	fmt.Fprintf(&b, "\n(b) average power reduction of C_PC1A vs Cshallow:\n")
	tb := &table{header: []string{"Load", "Cshallow", "C_PC1A", "Reduction", "Latency impact"}}
	for _, p := range r.Points {
		tb.add(fmt.Sprintf("%s (%s)", p.Label, Pct(p.Load)),
			Watts(p.ShallowWatts), Watts(p.PC1AWatts),
			Pct(p.PowerReduction), fmt.Sprintf("%+.4f%%", p.ImpactFrac*100))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "fully idle server reduction: %s (paper: 41%%)\n", Pct(r.IdleReduction))
	if r.Service == "MySQL" {
		b.WriteString("paper: all-idle 20-37%, power reduction 7-14%\n")
	} else {
		b.WriteString("paper: PC1A residency 15-47%, power reduction 9-19%\n")
	}
	return b.String()
}
