package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// Eq1Point is the analytic power-savings model (paper Eq. 1) evaluated
// at one load level with residencies measured from the Cshallow
// baseline.
type Eq1Point struct {
	Util        float64 // offered processor load
	QPS         float64
	RPC0        float64 // fraction of time ≥1 core active
	RPC0Idle    float64 // fraction of time all cores idle (R_PC1A)
	PPC0        float64 // average SoC+DRAM watts while not all-idle
	PPC0Idle    float64 // watts with all cores in CC1
	PPC1A       float64 // watts in PC1A
	Pbaseline   float64
	SavingsFrac float64
}

// Eq1Result holds the model at the paper's three operating points.
type Eq1Result struct {
	At5pct  Eq1Point
	At10pct Eq1Point
	Idle    Eq1Point
}

// Paper Sec. 2 values.
const (
	PaperEq1Savings5  = 0.23
	PaperEq1Savings10 = 0.17
	PaperEq1IdleSave  = 0.41
	PaperAllIdle5     = 0.57
	PaperAllIdle10    = 0.39
)

func init() {
	Define(50, "eq1", "analytic PC1A power-savings model (paper Eq. 1)",
		func(o Options) (Result, error) { return Eq1(o), nil })
}

// Eq1 measures residencies on the Cshallow baseline and plugs them into
// the paper's model together with the Table 1 state powers.
func Eq1(opt Options) *Eq1Result {
	// State powers, measured once.
	t1 := Table1(opt)
	pIdle := t1.PC0IdleSoC + t1.PC0IdleDRAM
	pPC1A := t1.PC1ASoC + t1.PC1ADRAM

	var m machine
	defer m.release()
	point := func(util float64) Eq1Point {
		spec := workload.MemcachedAtUtil(util, 10)
		run := m.runPoint(soc.Cshallow, spec, opt, false)
		rIdle, _ := run.win.AllIdle()
		rPC0 := 1 - rIdle
		pAvg := run.win.TotalWatts()
		// Decompose the measured average into the two regimes:
		// pAvg = rPC0·P_PC0 + rIdle·P_idle.
		pPC0 := pAvg
		if rPC0 > 0.01 {
			pPC0 = (pAvg - rIdle*pIdle) / rPC0
		}
		pt := Eq1Point{
			Util:     util,
			QPS:      spec.MeanQPS(),
			RPC0:     rPC0,
			RPC0Idle: rIdle,
			PPC0:     pPC0,
			PPC0Idle: pIdle,
			PPC1A:    pPC1A,
		}
		pt.Pbaseline = pt.RPC0*pt.PPC0 + pt.RPC0Idle*pt.PPC0Idle
		pt.SavingsFrac = pt.RPC0Idle * (pt.PPC0Idle - pt.PPC1A) / pt.Pbaseline
		return pt
	}

	r := &Eq1Result{
		At5pct:  point(0.05),
		At10pct: point(0.10),
	}
	// Idle server: R_PC0 = 0, R_PC0idle = 1 → savings = 1 − P_PC1A/P_idle.
	r.Idle = Eq1Point{
		Util:        0,
		RPC0Idle:    1,
		PPC0Idle:    pIdle,
		PPC1A:       pPC1A,
		Pbaseline:   pIdle,
		SavingsFrac: 1 - pPC1A/pIdle,
	}
	return r
}

// Report renders the model against the paper's Sec. 2 numbers. It implements Result.
func (r *Eq1Result) Report() string {
	var b strings.Builder
	b.WriteString("Eq. 1: analytic PC1A power-savings model (residencies from Cshallow)\n")
	t := &table{header: []string{"Load", "QPS", "R_all-idle", "P_PC0", "P_idle", "P_PC1A", "Savings", "Paper"}}
	add := func(p Eq1Point, paperSave, paperIdle string) {
		t.add(Pct(p.Util), fmt.Sprintf("%.0f", p.QPS), Pct(p.RPC0Idle),
			Watts(p.PPC0), Watts(p.PPC0Idle),
			Watts(p.PPC1A), Pct(p.SavingsFrac),
			fmt.Sprintf("save %s, idle %s", paperSave, paperIdle))
	}
	add(r.At5pct, "23%", "~57%")
	add(r.At10pct, "17%", "~39%")
	add(r.Idle, "41%", "100%")
	b.WriteString(t.String())
	return b.String()
}
