package experiments

import (
	"fmt"
	"strings"

	apc "agilepkgc/internal/core"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// SensitivityResult quantifies how each of APC's design choices buys its
// share of the headline result — the ablations DESIGN.md calls out:
//
//  1. Technique ablations: idle power with CLMR / CKE-off / IOSM
//     individually removed.
//  2. PLL policy: exit latency and idle power with PLLs kept on (APC)
//     vs powered off (PC6-style re-lock on exit).
//  3. APMU clock sweep: transition latency vs FSM frequency.
//  4. FIVR slew sweep: exit latency vs regulator slew rate.
//  5. End-to-end: power savings at a reference load for each ablated
//     configuration.
type SensitivityResult struct {
	BaselineIdleW float64 // Cshallow
	FullAPCIdleW  float64

	Ablations []AblationPoint

	PLLOnExit    sim.Duration // PC1A exit, PLLs locked
	PLLOffExit   sim.Duration // PC1A exit + relock, hypothetical
	PLLOnCostW   float64      // idle watts spent keeping PLLs locked
	APMUClockPts []APMUClockPoint
	SlewPts      []SlewPoint
}

// AblationPoint is one technique-removed configuration.
type AblationPoint struct {
	Name        string
	IdleW       float64
	IdleSavings float64 // vs Cshallow
	LoadSavings float64 // at the reference load (20K QPS Memcached)
}

// APMUClockPoint is one FSM frequency.
type APMUClockPoint struct {
	ClockMHz float64
	Entry    sim.Duration
	Exit     sim.Duration
}

// SlewPoint is one FIVR slew rate.
type SlewPoint struct {
	SlewMVPerNs float64
	Exit        sim.Duration
}

func init() {
	Define(120, "sensitivity", "technique ablations, PLL policy, APMU clock, FIVR slew",
		func(o Options) (Result, error) { return Sensitivity(o), nil })
}

// Sensitivity runs the sweep suite.
func Sensitivity(opt Options) *SensitivityResult {
	r := &SensitivityResult{}
	settle := 10 * sim.Millisecond

	idleW := func(cfg soc.Config) float64 {
		s := soc.New(cfg)
		s.Engine.Run(settle)
		return s.TotalPower()
	}

	// The reference-load Cshallow baseline is shared by every ablation;
	// run it once instead of once per ablated configuration.
	refSpec := workload.Memcached(20000)
	shallowRefW := shallowWatts(refSpec, opt)
	loadSavings := func(m *machine, cfg soc.Config) float64 {
		g, srv := m.fleet(cfg, server.DefaultConfig(), refSpec, opt)
		g.Run(opt.Warmup())
		win := srv.System().OpenWindow()
		g.Run(opt.Duration)
		return (shallowRefW - win.TotalWatts()) / shallowRefW
	}

	r.BaselineIdleW = idleW(soc.DefaultConfig(soc.Cshallow))
	r.FullAPCIdleW = idleW(soc.DefaultConfig(soc.CPC1A))

	type ablation struct {
		name string
		mut  func(*soc.Config)
	}
	r.Ablations = SweepWith(opt, []ablation{
		{"full APC", func(*soc.Config) {}},
		{"no CLMR", func(c *soc.Config) { c.NoCLMRetention = true }},
		{"no CKE-off", func(c *soc.Config) { c.NoCKEOff = true }},
		{"no IO standby", func(c *soc.Config) { c.NoIOStandby = true }},
	}, newMachine, (*machine).release, func(m *machine, a ablation) AblationPoint {
		cfg := soc.DefaultConfig(soc.CPC1A)
		a.mut(&cfg)
		w := idleW(cfg)
		return AblationPoint{
			Name:        a.name,
			IdleW:       w,
			IdleSavings: 1 - w/r.BaselineIdleW,
			LoadSavings: loadSavings(m, cfg),
		}
	})

	// PLL policy: measured exit with PLLs locked; hypothetical exit with
	// a PC6-style relock serialized after PwrOk (the CLM clock cannot
	// ungate until its PLL locks).
	{
		s := soc.New(soc.DefaultConfig(soc.CPC1A))
		s.Engine.Run(settle)
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + sim.Millisecond)
		r.PLLOnExit = s.APMU.LastExitLatency()
		r.PLLOffExit = r.PLLOnExit + s.CLM.PLL().RelockLatency()
		r.PLLOnCostW = float64(len(s.PLLs)) * 0.007
	}

	// APMU clock sweep.
	for _, p := range Sweep(opt, []float64{100, 250, 500, 1000}, func(mhz float64) APMUClockPoint {
		cfg := soc.DefaultConfig(soc.CPC1A)
		cfg.APMUConfig = apc.Config{ClockHz: mhz * 1e6, ActionCycles: 2}
		s := soc.New(cfg)
		s.Engine.Run(settle)
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + sim.Millisecond)
		if s.APMU.Entries(pmu.PC1A) == 0 {
			return APMUClockPoint{}
		}
		return APMUClockPoint{
			ClockMHz: mhz,
			Entry:    16*sim.Nanosecond + s.APMU.LastEntryLatency(),
			Exit:     s.APMU.LastExitLatency(),
		}
	}) {
		if p.ClockMHz != 0 {
			r.APMUClockPts = append(r.APMUClockPts, p)
		}
	}

	// FIVR slew sweep: the CLM ramp dominates exit latency, so exit
	// scales inversely with slew.
	r.SlewPts = Sweep(opt, []float64{1, 2, 4, 8}, func(mv float64) SlewPoint {
		cfg := soc.DefaultConfig(soc.CPC1A)
		cfg.CLMParams.SlewVoltsPerNs = mv / 1000
		s := soc.New(cfg)
		s.Engine.Run(settle)
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + sim.Millisecond)
		return SlewPoint{
			SlewMVPerNs: mv,
			Exit:        s.APMU.LastExitLatency(),
		}
	})
	return r
}

// Report renders the sweep suite. It implements Result.
func (r *SensitivityResult) Report() string {
	var b strings.Builder
	b.WriteString("Sensitivity: what each APC design choice buys\n\n")
	b.WriteString("Technique ablations (idle + 20K QPS Memcached):\n")
	t := &table{header: []string{"Configuration", "Idle power", "Idle savings", "Savings @20K"}}
	for _, a := range r.Ablations {
		t.add(a.Name, Watts(a.IdleW), Pct(a.IdleSavings), Pct(a.LoadSavings))
	}
	b.WriteString(t.String())

	fmt.Fprintf(&b, "\nPLL policy: exit %v with PLLs locked (cost %.0f mW idle) vs %v with PC6-style relock\n",
		r.PLLOnExit, r.PLLOnCostW*1000, r.PLLOffExit)

	b.WriteString("\nAPMU clock sweep (entry includes the fixed 16ns L0s window):\n")
	tc := &table{header: []string{"FSM clock", "Entry", "Exit"}}
	for _, p := range r.APMUClockPts {
		tc.add(fmt.Sprintf("%.0fMHz", p.ClockMHz), p.Entry.String(), p.Exit.String())
	}
	b.WriteString(tc.String())

	b.WriteString("\nFIVR slew sweep (300mV retention swing):\n")
	ts := &table{header: []string{"Slew", "PC1A exit"}}
	for _, p := range r.SlewPts {
		ts.add(fmt.Sprintf("%.0fmV/ns", p.SlewMVPerNs), p.Exit.String())
	}
	b.WriteString(ts.String())
	return b.String()
}
