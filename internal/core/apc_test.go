package core

import (
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/uncore"
)

// rig is a small APC system: N cores in Cshallow, PCIe+DMI+UPI links,
// two MCs, a CLM, a GPMU with PC6 disabled, and the APMU.
type rig struct {
	eng   *sim.Engine
	cores []*cpu.Core
	links []*ios.Link
	mcs   []*dram.MC
	clm   *uncore.CLM
	gpmu  *pmu.GPMU
	apmu  *APMU
}

func newRig(nCores int) *rig {
	eng := sim.NewEngine()
	r := &rig{eng: eng}
	for i := 0; i < nCores; i++ {
		r.cores = append(r.cores, new(cpu.Core).Init(eng, i, cpu.DefaultParams(),
			cpu.ShallowGovernor{}, cpu.PerformancePolicy{Nominal: 2.2}, nil))
	}
	r.links = []*ios.Link{
		new(ios.Link).Init(eng, sim.Named("pcie0"), ios.DefaultParams(ios.PCIe, 1.4), nil),
		new(ios.Link).Init(eng, sim.Named("dmi"), ios.DefaultParams(ios.DMI, 1.4), nil),
		new(ios.Link).Init(eng, sim.Named("upi0"), ios.DefaultParams(ios.UPI, 1.7), nil),
	}
	r.mcs = []*dram.MC{
		new(dram.MC).Init(eng, sim.Named("mc0"), dram.DefaultParams(), dram.PPD, nil, nil),
		new(dram.MC).Init(eng, sim.Named("mc1"), dram.DefaultParams(), dram.PPD, nil, nil),
	}
	r.clm = new(uncore.CLM).Init(eng, uncore.DefaultParams(), nil, nil)
	r.gpmu = new(pmu.GPMU).Init(eng, pmu.DefaultConfig(false), r.cores, r.links, r.mcs, r.clm)
	r.apmu = new(APMU).Init(eng, DefaultConfig(), r.cores, r.links, r.mcs, r.clm, r.gpmu)
	return r
}

func TestConfigCycle(t *testing.T) {
	c := DefaultConfig()
	if c.cycle() != 4*sim.Nanosecond {
		t.Fatalf("cycle = %v, want 4ns (2 cycles at 500MHz)", c.cycle())
	}
}

// An idle system must settle into PC1A with the full Table 2 device
// configuration: links in L0s/L0p, DRAM CKE-off, CLM retention, every
// PLL still locked.
func TestIdleSystemReachesPC1A(t *testing.T) {
	r := newRig(4)
	r.eng.Run(sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatalf("state %v, want PC1A", r.apmu.State())
	}
	for _, l := range r.links {
		if l.State() != ios.L0s {
			t.Errorf("link %s in %v, want standby", l.Name(), l.State())
		}
	}
	r.eng.Run(200 * sim.Microsecond)
	for _, mc := range r.mcs {
		if mc.Mode() != dram.PowerDown {
			t.Errorf("MC %s in %v, want CKE-off", mc.Name(), mc.Mode())
		}
	}
	if !r.clm.Gated() {
		t.Error("CLM clock must be gated in PC1A")
	}
	if !r.clm.AtRetentionVoltage() {
		t.Error("CLM must reach retention voltage")
	}
	if !r.clm.PLL().Locked() {
		t.Error("PC1A keeps all PLLs locked — that is the whole point")
	}
	if !r.apmu.InPC1A().Level() {
		t.Error("InPC1A wire must be high")
	}
}

// Paper Sec. 5.5.1: entry latency ≈ 18 ns — 16 ns of IO idle window plus
// 1–2 FSM cycles. Measured from ACC1 with idle IOs.
func TestEntryLatencyMatchesPaper(t *testing.T) {
	r := newRig(4)
	r.eng.Run(sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatal("setup failed")
	}
	got := r.apmu.LastEntryLatency()
	if got > 8*sim.Nanosecond {
		t.Fatalf("FSM entry action latency %v, want ≤ 2 cycles (4ns) scheduled once; total blocking entry is IO window 16ns + this", got)
	}
	// The full picture: PC0→PC1A took 16ns (L0s entry) + FSM cycle(s).
	// Verify via transition timestamps on a fresh rig.
	r2 := newRig(2)
	var acc1At, pc1aAt sim.Time = -1, -1
	r2.apmu.OnTransition(func(old, new pmu.PkgState) {
		switch new {
		case pmu.ACC1:
			if acc1At < 0 {
				acc1At = r2.eng.Now()
			}
		case pmu.PC1A:
			if pc1aAt < 0 {
				pc1aAt = r2.eng.Now()
			}
		}
	})
	// Cores start idle; APMU constructed in ACC1 already. Drive one core
	// through a job so we observe a full PC0→ACC1→PC1A sequence.
	r2.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
	r2.eng.Run(sim.Millisecond)
	entry := pc1aAt - acc1At
	if entry < 16*sim.Nanosecond || entry > 24*sim.Nanosecond {
		t.Fatalf("ACC1→PC1A = %v, want ~18-20ns (16ns L0s window + FSM cycles)", entry)
	}
}

// Paper Sec. 5.5.2: exit ≤ 150 ns, dominated by the CLM voltage ramp;
// worst-case entry+exit ≤ 200 ns.
func TestExitLatencyMatchesPaper(t *testing.T) {
	r := newRig(4)
	r.eng.Run(10 * sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatal("setup failed")
	}
	// Wake via core interrupt.
	r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
	r.eng.Run(engPlus(r.eng, sim.Microsecond))
	exit := r.apmu.LastExitLatency()
	if exit > 160*sim.Nanosecond {
		t.Fatalf("exit latency %v, want ≤ ~158ns (150ns ramp + FSM cycles)", exit)
	}
	if exit < 150*sim.Nanosecond {
		t.Fatalf("exit latency %v implausibly fast: the ramp alone is 150ns", exit)
	}
	total := r.apmu.LastEntryLatency() + 16*sim.Nanosecond + exit
	if total > 200*sim.Nanosecond {
		t.Fatalf("entry+exit = %v, exceeds the paper's 200ns budget", total)
	}
}

func engPlus(e *sim.Engine, d sim.Duration) sim.Time { return e.Now() + d }

// A wake mid-ramp (before retention is reached) must still recover
// correctly, and faster than a full ramp (preemptive FIVR commands).
func TestWakeDuringEntryRamp(t *testing.T) {
	r2 := newRig(2)
	r2.eng.Run(10 * sim.Microsecond) // in PC1A, fully settled? ramp done
	// Exit and catch the next entry, then wake 40ns in.
	var tEnter sim.Time = -1
	r2.apmu.OnTransition(func(old, new pmu.PkgState) {
		if new == pmu.PC1A && tEnter < 0 {
			tEnter = r2.eng.Now()
			r2.eng.Schedule(40*sim.Nanosecond, sim.Func(func() {
				r2.cores[1].Enqueue(cpu.Work{Duration: sim.Microsecond})
			}))
		}
	})
	r2.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
	r2.eng.Run(r2.eng.Now() + sim.Millisecond)
	if tEnter < 0 {
		t.Fatal("no PC1A re-entry")
	}
	// System must end up healthy: PC1A again (both cores idle) with CLM
	// settled.
	if r2.apmu.State() != pmu.PC1A {
		t.Fatalf("state %v after mid-ramp wake recovery", r2.apmu.State())
	}
	if !r2.clm.AtRetentionVoltage() {
		t.Fatal("CLM should be back at retention in steady PC1A")
	}
}

// IO traffic while in PC1A wakes the package but not the cores; the
// system returns to ACC1, serves the IO, and re-enters PC1A.
func TestIOWakeWithoutCoreWake(t *testing.T) {
	r := newRig(2)
	r.eng.Run(10 * sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatal("setup failed")
	}
	entriesBefore := r.apmu.Entries(pmu.PC1A)

	// A DMA-ish transaction on the PCIe link, no core involvement.
	l := r.links[0]
	l.StartTransaction()
	r.eng.Run(r.eng.Now() + 300*sim.Nanosecond)
	if r.apmu.State() == pmu.PC1A {
		t.Fatal("IO wake must exit PC1A")
	}
	l.EndTransaction()
	r.eng.Run(r.eng.Now() + 10*sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatalf("state %v, want PC1A re-entered after IO drained", r.apmu.State())
	}
	if r.apmu.Entries(pmu.PC1A) != entriesBefore+1 {
		t.Fatalf("PC1A entries %d, want %d", r.apmu.Entries(pmu.PC1A), entriesBefore+1)
	}
}

// GPMU timer expiration wakes PC1A via the WakeUp wire.
func TestTimerWake(t *testing.T) {
	r := newRig(2)
	r.eng.Run(10 * sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatal("setup failed")
	}
	entriesBefore := r.apmu.Entries(pmu.PC1A)
	resBefore := r.apmu.Residency(pmu.ACC1)
	r.gpmu.FireTimer()
	r.eng.Run(r.eng.Now() + 10*sim.Microsecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatalf("state %v, want PC1A re-entered (no core work)", r.apmu.State())
	}
	if r.apmu.Entries(pmu.PC1A) != entriesBefore+1 {
		t.Fatalf("PC1A entries %d, want %d: timer must have caused one exit+re-entry",
			r.apmu.Entries(pmu.PC1A), entriesBefore+1)
	}
	if r.apmu.Residency(pmu.ACC1) <= resBefore {
		t.Fatal("timer wake should have accrued ACC1 residency")
	}
}

// A core interrupt in ACC1 (before PC1A) returns to PC0 and deasserts
// AllowL0s.
func TestCoreInterruptInACC1(t *testing.T) {
	r := newRig(2)
	// Immediately after construction the APMU is in ACC1 and the links
	// are counting down their 16ns idle window. Interrupt at 8ns.
	r.eng.Run(8 * sim.Nanosecond)
	if r.apmu.State() != pmu.ACC1 {
		t.Fatalf("state %v, want ACC1", r.apmu.State())
	}
	r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
	if r.apmu.State() != pmu.PC0 {
		t.Fatalf("state %v, want PC0 after core interrupt in ACC1", r.apmu.State())
	}
	for _, l := range r.links {
		if l.AllowL0s().Level() {
			t.Errorf("link %s AllowL0s still set in PC0", l.Name())
		}
	}
	r.eng.Run(sim.Millisecond)
	if r.apmu.State() != pmu.PC1A {
		t.Fatal("system should re-idle into PC1A after the work")
	}
}

// In PC0 (cores active), links must never enter L0s — the datacenter
// performance requirement APC preserves.
func TestNoL0sWhileCoresActive(t *testing.T) {
	r := newRig(2)
	// Keep one core busy for a long stretch.
	r.cores[0].Enqueue(cpu.Work{Duration: 500 * sim.Microsecond})
	r.eng.Run(100 * sim.Microsecond)
	for _, l := range r.links {
		if l.State() != ios.L0 {
			t.Fatalf("link %s in %v while a core is active", l.Name(), l.State())
		}
	}
}

// Memory access from a core during PC0 keeps MCs out of CKE-off.
func TestNoCKEOffWhileActive(t *testing.T) {
	r := newRig(2)
	r.cores[0].Enqueue(cpu.Work{Duration: 100 * sim.Microsecond})
	r.eng.Run(50 * sim.Microsecond)
	for _, mc := range r.mcs {
		if mc.Mode() != dram.Active {
			t.Fatalf("MC %s in %v during PC0", mc.Name(), mc.Mode())
		}
	}
}

// Many entry/exit cycles: counters consistent, no leaks, state sane.
func TestRepeatedCycleStress(t *testing.T) {
	r := newRig(4)
	r.eng.Run(10 * sim.Microsecond)
	for i := 0; i < 200; i++ {
		c := r.cores[i%4]
		c.Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
		r.eng.Run(r.eng.Now() + 50*sim.Microsecond)
	}
	if r.apmu.State() != pmu.PC1A {
		t.Fatalf("state %v after stress, want PC1A", r.apmu.State())
	}
	if r.apmu.Entries(pmu.PC1A) < 190 {
		t.Fatalf("PC1A entries %d, want ~200", r.apmu.Entries(pmu.PC1A))
	}
	// Residency sanity: total accounted time ≈ elapsed.
	var total sim.Duration
	for _, s := range []pmu.PkgState{pmu.PC0, pmu.ACC1, pmu.PC1A} {
		total += r.apmu.Residency(s)
	}
	if total > r.eng.Now() || total < r.eng.Now()-sim.Microsecond {
		t.Fatalf("residency sum %v vs elapsed %v", total, r.eng.Now())
	}
}

// PC1A residency dominates on an idle system.
func TestIdleResidencyNearTotal(t *testing.T) {
	r := newRig(10)
	r.eng.Run(100 * sim.Millisecond)
	res := r.apmu.Residency(pmu.PC1A)
	frac := float64(res) / float64(r.eng.Now())
	if frac < 0.999 {
		t.Fatalf("idle PC1A residency %.4f, want ≈1 (paper: idle server saves 41%%)", frac)
	}
}

func TestDescribe(t *testing.T) {
	r := newRig(2)
	r.eng.Run(sim.Microsecond)
	if s := r.apmu.Describe(); s == "" {
		t.Fatal("Describe empty")
	}
}
