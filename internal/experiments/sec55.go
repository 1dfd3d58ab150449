package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

// Sec55Result reproduces the paper's Sec. 5.5 latency analysis: PC1A
// entry and exit latency broken out and compared with PC6.
type Sec55Result struct {
	// PC1A measured latencies.
	EntryIOWindow sim.Duration // L0s entry window (16 ns)
	EntryFSM      sim.Duration // FSM actions after &InL0s
	Entry         sim.Duration // total blocking entry
	Exit          sim.Duration // wake → uncore restored
	Total         sim.Duration // entry + exit

	// PC6 comparison.
	PC6Entry sim.Duration
	PC6Exit  sim.Duration
	PC6Total sim.Duration

	Speedup float64
}

func init() {
	Define(40, "sec55", "PC1A vs PC6 transition-latency breakdown (paper Sec. 5.5)",
		func(o Options) (Result, error) { return Sec55(o), nil })
}

// Sec55 measures one full transition of each flow.
func Sec55(opt Options) *Sec55Result {
	r := &Sec55Result{}

	// PC1A: settle in PC1A, wake with a core interrupt, re-enter.
	{
		s := soc.New(soc.DefaultConfig(soc.CPC1A))
		var acc1At, pc1aAt sim.Time = -1, -1
		s.APMU.OnTransition(func(old, new pmu.PkgState) {
			switch new {
			case pmu.ACC1:
				if acc1At < 0 {
					acc1At = s.Engine.Now()
				}
			case pmu.PC1A:
				if pc1aAt < 0 {
					pc1aAt = s.Engine.Now()
				}
			}
		})
		// Drive one job so we observe a clean PC0→ACC1→PC1A→(wake)→PC0
		// cycle with fresh timestamps.
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(sim.Millisecond)
		if pc1aAt < 0 || acc1At < 0 {
			panic("sec55: PC1A never entered")
		}
		r.EntryFSM = s.APMU.LastEntryLatency()
		r.Entry = pc1aAt - acc1At
		r.EntryIOWindow = r.Entry - r.EntryFSM

		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + sim.Millisecond)
		r.Exit = s.APMU.LastExitLatency()
		r.Total = r.Entry + r.Exit
	}

	// PC6: measured the same way as Table 1.
	{
		s := soc.New(soc.DefaultConfig(soc.Cdeep))
		var pc2At, pc6At, pc0At sim.Time = -1, -1, -1
		s.GPMU.OnTransition(func(old, new pmu.PkgState) {
			switch new {
			case pmu.PC2:
				if pc2At < 0 {
					pc2At = s.Engine.Now()
				}
			case pmu.PC6:
				if pc6At < 0 {
					pc6At = s.Engine.Now()
				}
			case pmu.PC0:
				pc0At = s.Engine.Now()
			}
		})
		s.ForceAllCC6()
		r.PC6Entry = pc6At - pc2At
		wakeAt := s.Engine.Now()
		s.Cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		s.Engine.Run(s.Engine.Now() + 5*sim.Millisecond)
		r.PC6Exit = pc0At - wakeAt
		r.PC6Total = r.PC6Entry + r.PC6Exit
	}

	r.Speedup = float64(r.PC6Total) / float64(r.Total)
	return r
}

// Report renders the latency budget against the paper. It implements Result.
func (r *Sec55Result) Report() string {
	var b strings.Builder
	b.WriteString("Sec 5.5: PC1A transition latency\n")
	t := &table{header: []string{"Phase", "Measured", "Paper"}}
	t.add("Entry: IO L0s window", r.EntryIOWindow.String(), "16ns")
	t.add("Entry: APMU FSM actions", r.EntryFSM.String(), "~2ns (1-2 cycles @500MHz)")
	t.add("Entry total (blocking)", r.Entry.String(), "~18ns")
	t.add("Exit (CLM ramp dominated)", r.Exit.String(), "<=150ns")
	t.add("Entry+Exit", r.Total.String(), "<=168ns (budget 200ns)")
	t.add("PC6 entry", r.PC6Entry.String(), "")
	t.add("PC6 exit", r.PC6Exit.String(), "")
	t.add("PC6 entry+exit", r.PC6Total.String(), ">50us")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nSpeedup PC6/PC1A: %.0fx (paper: >250x)\n", r.Speedup)
	return b.String()
}
