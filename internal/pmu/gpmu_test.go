package pmu

import (
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/uncore"
)

// rig builds a minimal 2-core system with one PCIe link, one MC and a CLM.
type rig struct {
	eng   *sim.Engine
	cores []*cpu.Core
	link  *ios.Link
	mc    *dram.MC
	clm   *uncore.CLM
	gpmu  *GPMU
}

func newRig(t *testing.T, enablePC6 bool) *rig {
	t.Helper()
	eng := sim.NewEngine()
	gov := func() cpu.Governor {
		if enablePC6 {
			return cpu.NewMenuGovernor()
		}
		return cpu.ShallowGovernor{}
	}
	cores := []*cpu.Core{
		new(cpu.Core).Init(eng, 0, cpu.DefaultParams(), gov(), cpu.PerformancePolicy{Nominal: 2.2}, nil),
		new(cpu.Core).Init(eng, 1, cpu.DefaultParams(), gov(), cpu.PerformancePolicy{Nominal: 2.2}, nil),
	}
	link := new(ios.Link).Init(eng, sim.Named("pcie0"), ios.DefaultParams(ios.PCIe, 1.4), nil)
	mc := new(dram.MC).Init(eng, sim.Named("mc0"), dram.DefaultParams(), dram.PPD, nil, nil)
	clm := new(uncore.CLM).Init(eng, uncore.DefaultParams(), nil, nil)
	g := new(GPMU).Init(eng, DefaultConfig(enablePC6), cores,
		[]*ios.Link{link}, []*dram.MC{mc}, clm)
	return &rig{eng: eng, cores: cores, link: link, mc: mc, clm: clm, gpmu: g}
}

// driveAllToCC6 runs one tiny job on each core and lets the menu governor
// (seeded by a long boot idle) put them in CC6.
func (r *rig) driveAllToCC6(t *testing.T) {
	t.Helper()
	r.eng.Run(10 * sim.Millisecond)
	for _, c := range r.cores {
		c.Enqueue(cpu.Work{Duration: sim.Microsecond})
	}
	r.eng.Run(r.eng.Now() + 5*sim.Millisecond)
	for _, c := range r.cores {
		if c.State() != cpu.CC6 {
			t.Fatalf("core %d in %v, want CC6", c.ID(), c.State())
		}
	}
}

func TestPkgStateStrings(t *testing.T) {
	want := map[PkgState]string{PC0: "PC0", PC2: "PC2", PC6: "PC6", ACC1: "ACC1", PC1A: "PC1A"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d → %q, want %q", s, s.String(), w)
		}
	}
	if PkgState(9).String() != "PkgState(9)" {
		t.Error("unknown format wrong")
	}
}

func TestPC6EntryWhenAllCoresDeep(t *testing.T) {
	r := newRig(t, true)
	r.driveAllToCC6(t)
	if r.gpmu.State() != PC6 {
		t.Fatalf("package state %v, want PC6", r.gpmu.State())
	}
	// Device states must match paper Table 2: IOs L1, DRAM SR, PLL off,
	// CLM retention.
	if r.link.State() != ios.L1 {
		t.Errorf("link in %v, want L1", r.link.State())
	}
	if r.mc.Mode() != dram.SelfRefresh {
		t.Errorf("DRAM in %v, want self-refresh", r.mc.Mode())
	}
	if r.clm.PLL().Locked() {
		t.Error("CLM PLL must be off in PC6")
	}
	if !r.clm.AtRetentionVoltage() {
		t.Error("CLM must be at retention in PC6")
	}
	if r.gpmu.Entries(PC6) != 1 || r.gpmu.Entries(PC2) != 1 {
		t.Errorf("entries PC6=%d PC2=%d", r.gpmu.Entries(PC6), r.gpmu.Entries(PC2))
	}
}

func TestNoPC6WhenDisabled(t *testing.T) {
	r := newRig(t, false) // Cshallow: CC6 and PC6 disabled
	r.eng.Run(100 * sim.Millisecond)
	if r.gpmu.State() != PC0 {
		t.Fatalf("state %v with PC6 disabled, want PC0 forever", r.gpmu.State())
	}
	if r.gpmu.Residency(PC0) != 100*sim.Millisecond {
		t.Fatalf("PC0 residency %v", r.gpmu.Residency(PC0))
	}
}

func TestNoPC6WhenCoresOnlyCC1(t *testing.T) {
	// Even with PC6 enabled, cores sitting in CC1 never trigger it —
	// the exact inefficiency the paper attacks.
	eng := sim.NewEngine()
	cores := []*cpu.Core{
		new(cpu.Core).Init(eng, 0, cpu.DefaultParams(), cpu.ShallowGovernor{}, cpu.PerformancePolicy{Nominal: 2.2}, nil),
	}
	link := new(ios.Link).Init(eng, sim.Named("pcie0"), ios.DefaultParams(ios.PCIe, 1.4), nil)
	mc := new(dram.MC).Init(eng, sim.Named("mc0"), dram.DefaultParams(), dram.PPD, nil, nil)
	clm := new(uncore.CLM).Init(eng, uncore.DefaultParams(), nil, nil)
	g := new(GPMU).Init(eng, DefaultConfig(true), cores, []*ios.Link{link}, []*dram.MC{mc}, clm)
	eng.Run(50 * sim.Millisecond)
	if g.State() != PC0 {
		t.Fatalf("state %v, want PC0: CC1 does not qualify for PC6", g.State())
	}
}

func TestPC6ExitOnCoreWake(t *testing.T) {
	r := newRig(t, true)
	r.driveAllToCC6(t)
	t0 := r.eng.Now()
	var doneAt sim.Time
	r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond, OnDone: sim.Func(func() { doneAt = r.eng.Now() })})
	r.eng.Run(r.eng.Now() + 2*sim.Millisecond)
	if r.gpmu.State() != PC0 && r.gpmu.State() != PC2 && r.gpmu.State() != PC6 {
		// After the wake and the work the system re-deepens; just check
		// the work ran and the unwind happened.
	}
	if doneAt == 0 {
		t.Fatal("work never completed")
	}
	// The package exit must have taken tens of microseconds.
	exitLat := r.gpmu.LastExitLatency()
	if exitLat < 20*sim.Microsecond {
		t.Fatalf("PC6 exit latency %v, want tens of µs", exitLat)
	}
	_ = t0
	if r.gpmu.Entries(PC0) == 0 {
		t.Fatal("never returned to PC0")
	}
}

func TestPC6RoundTripLatencyOver50us(t *testing.T) {
	r := newRig(t, true)
	r.driveAllToCC6(t)
	entryStart := sim.Time(-1)
	var pc6At, pc0At sim.Time
	r.gpmu.OnTransition(func(old, new PkgState) {
		switch new {
		case PC2:
			if entryStart < 0 {
				entryStart = r.eng.Now()
			}
		case PC6:
			pc6At = r.eng.Now()
		case PC0:
			pc0At = r.eng.Now()
		}
	})
	// Wake it, let it re-enter, then wake again to measure a full cycle.
	r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
	r.eng.Run(r.eng.Now() + 20*sim.Millisecond)
	if r.gpmu.State() != PC6 {
		t.Fatalf("did not re-enter PC6: %v", r.gpmu.State())
	}
	entry := pc6At - entryStart
	wakeAt := r.eng.Now()
	r.cores[1].Enqueue(cpu.Work{Duration: sim.Microsecond})
	r.eng.Run(r.eng.Now() + sim.Millisecond)
	exit := pc0At - wakeAt
	total := entry + exit
	if total < 50*sim.Microsecond {
		t.Fatalf("PC6 round trip %v (entry %v + exit %v), want >50us per Table 1", total, entry, exit)
	}
	if total > 200*sim.Microsecond {
		t.Fatalf("PC6 round trip %v implausibly slow", total)
	}
}

func TestWakeDuringEntryUnwinds(t *testing.T) {
	r := newRig(t, true)
	r.eng.Run(10 * sim.Millisecond)
	for _, c := range r.cores {
		c.Enqueue(cpu.Work{Duration: sim.Microsecond})
	}
	// Cores re-idle to CC6 at ~14us (1us wake... menu seeded deep);
	// entry flow starts after hysteresis. Interrupt mid-flow.
	entered := false
	r.gpmu.OnTransition(func(old, new PkgState) {
		if new == PC2 && !entered {
			entered = true
			// Inject a wake two steps into the entry.
			r.eng.Schedule(7*sim.Microsecond, sim.Func(func() {
				r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
			}))
		}
	})
	r.eng.Run(r.eng.Now() + 50*sim.Millisecond)
	if !entered {
		t.Fatal("entry flow never started")
	}
	if r.gpmu.Entries(PC0) == 0 {
		t.Fatal("never unwound to PC0")
	}
}

func TestFireTimerPulsesWakeUp(t *testing.T) {
	r := newRig(t, true)
	edges := 0
	r.gpmu.WakeUp().Subscribe(func(l bool) { edges++ })
	r.gpmu.FireTimer()
	if edges != 2 { // rise + fall
		t.Fatalf("WakeUp edges = %d, want 2 (pulse)", edges)
	}
}

func TestTimerWakesPC6(t *testing.T) {
	r := newRig(t, true)
	r.driveAllToCC6(t)
	if r.gpmu.State() != PC6 {
		t.Fatal("setup failed")
	}
	r.gpmu.FireTimer()
	r.eng.Run(r.eng.Now() + sim.Millisecond)
	// No core work, so the system unwinds to PC0 and may re-enter PC6.
	if r.gpmu.Entries(PC0) == 0 {
		t.Fatal("timer wake did not unwind PC6")
	}
}

func TestResidencyAccounting(t *testing.T) {
	r := newRig(t, true)
	r.driveAllToCC6(t)
	r.eng.Run(r.eng.Now() + 10*sim.Millisecond)
	pc6 := r.gpmu.Residency(PC6)
	if pc6 < 9*sim.Millisecond {
		t.Fatalf("PC6 residency %v, want ≥9ms of the last 10ms", pc6)
	}
	total := r.gpmu.Residency(PC0) + r.gpmu.Residency(PC2) + r.gpmu.Residency(PC6)
	if total > r.eng.Now() || total < r.eng.Now()-sim.Millisecond {
		t.Fatalf("residencies %v do not sum to elapsed %v", total, r.eng.Now())
	}
}
