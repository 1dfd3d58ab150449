package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

// Table1Result reproduces paper Table 1: SoC + DRAM power and transition
// latency for each package C-state on the 10-core reference server.
type Table1Result struct {
	// Measured steady-state watts.
	PC0SoC, PC0DRAM         float64
	PC0IdleSoC, PC0IdleDRAM float64
	PC6SoC, PC6DRAM         float64
	PC1ASoC, PC1ADRAM       float64

	// Measured transition latencies (entry+exit).
	PC6Latency  sim.Duration
	PC1ALatency sim.Duration
}

// Paper Table 1 values for comparison.
const (
	PaperPC0SoC      = 85.0
	PaperPC0DRAM     = 7.0
	PaperPC0IdleSoC  = 44.0
	PaperPC0IdleDRAM = 5.5
	PaperPC6SoC      = 12.0
	PaperPC6DRAM     = 0.5
	PaperPC1ASoC     = 27.5
	PaperPC1ADRAM    = 1.6
)

func init() {
	Define(10, "table1", "power and latency per package C-state (paper Table 1)",
		func(o Options) (Result, error) { return Table1(o), nil })
}

// Table1 measures every row of paper Table 1 on freshly assembled
// systems.
func Table1(opt Options) *Table1Result {
	r := &Table1Result{}
	settle := 10 * sim.Millisecond

	// PC0: all cores active (Cshallow, saturating work), DRAM pumped
	// with sustained access traffic (the paper's 7 W row is a loaded
	// system).
	{
		s := soc.New(soc.DefaultConfig(soc.Cshallow))
		for _, c := range s.Cores {
			c.Enqueue(cpu.Work{Duration: 100 * sim.Millisecond})
		}
		stop := false
		var pump sim.Func
		pump = func() {
			if stop {
				return
			}
			s.MemAccess(4)
			s.Engine.Schedule(9*sim.Microsecond, pump)
		}
		pump()
		s.Engine.Run(settle)
		win := s.OpenWindow()
		s.Engine.Run(s.Engine.Now() + settle)
		r.PC0SoC = s.SoCPower()
		r.PC0DRAM = win.Watts(power.DRAM)
		stop = true
	}

	// PC0idle: all cores in CC1 (Cshallow, idle).
	{
		s := soc.New(soc.DefaultConfig(soc.Cshallow))
		s.Engine.Run(settle)
		r.PC0IdleSoC, r.PC0IdleDRAM = s.SoCPower(), s.DRAMPower()
	}

	// PC6 (Cdeep, forced deep): steady power plus a measured entry+exit
	// round trip.
	{
		s := soc.New(soc.DefaultConfig(soc.Cdeep))
		var pc2At, pc6At, pc0At sim.Time = -1, -1, -1
		s.GPMU.OnTransition(func(old, new pmu.PkgState) {
			switch new {
			case pmu.PC2:
				pc2At = s.Engine.Now()
			case pmu.PC6:
				pc6At = s.Engine.Now()
			case pmu.PC0:
				pc0At = s.Engine.Now()
			}
		})
		s.ForceAllCC6()
		r.PC6SoC, r.PC6DRAM = s.SoCPower(), s.DRAMPower()
		entry := pc6At - pc2At

		wakeAt := s.Engine.Now()
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + 5*sim.Millisecond)
		exit := pc0At - wakeAt
		r.PC6Latency = entry + exit
	}

	// PC1A (CPC1A, idle): steady power plus entry+exit latency. The
	// blocking entry is the 16 ns L0s window plus the FSM action; exit
	// is measured by the APMU.
	{
		s := soc.New(soc.DefaultConfig(soc.CPC1A))
		s.Engine.Run(settle)
		r.PC1ASoC, r.PC1ADRAM = s.SoCPower(), s.DRAMPower()

		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + sim.Millisecond)
		r.PC1ALatency = 16*sim.Nanosecond + s.APMU.LastEntryLatency() + s.APMU.LastExitLatency()
	}
	return r
}

// Speedup returns the PC6/PC1A transition-latency ratio (paper: >250×).
func (r *Table1Result) Speedup() float64 {
	return float64(r.PC6Latency) / float64(r.PC1ALatency)
}

// Report renders the table against the paper's values. It implements Result.
func (r *Table1Result) Report() string {
	t := &table{header: []string{"Package/cores C-state", "Latency", "SoC power", "DRAM power", "Paper (SoC+DRAM, latency)"}}
	t.add("PC0 / >=1 CC0", "0ns",
		Watts(r.PC0SoC), Watts(r.PC0DRAM),
		"<=85W + 7W, 0ns")
	t.add("PC0idle / all CC1", "0ns",
		Watts(r.PC0IdleSoC), Watts(r.PC0IdleDRAM),
		"44W + 5.5W, 0ns")
	t.add("PC6 / all CC6", r.PC6Latency.String(),
		Watts(r.PC6SoC), Watts(r.PC6DRAM),
		"12W + 0.5W, >50us")
	t.add("PC1A / all CC1", r.PC1ALatency.String(),
		Watts(r.PC1ASoC), Watts(r.PC1ADRAM),
		"27.5W + 1.6W, <200ns")
	var b strings.Builder
	b.WriteString("Table 1: power and transition latency per package C-state\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nPC1A vs PC6 transition speedup: %.0fx (paper: >250x)\n", r.Speedup())
	return b.String()
}
