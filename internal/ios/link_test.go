package ios

import (
	"testing"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func newPCIe(eng *sim.Engine) *Link {
	return new(Link).Init(eng, sim.Named("pcie0"), DefaultParams(PCIe, 1.4), nil)
}

func TestStateAndKindStrings(t *testing.T) {
	names := map[LState]string{
		L0: "L0", L0sEntry: "L0s-entry", L0s: "L0s",
		L0sExit: "L0s-exit", L1: "L1", L1Exit: "L1-exit",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if PCIe.String() != "PCIe" || DMI.String() != "DMI" || UPI.String() != "UPI" {
		t.Error("kind names wrong")
	}
	if LState(99).String() != "LState(99)" || Kind(99).String() != "Kind(99)" {
		t.Error("unknown formats wrong")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(PCIe, 2.0)
	if p.StandbyExit != 64*sim.Nanosecond || p.StandbyEntry != 16*sim.Nanosecond {
		t.Errorf("PCIe L0s latencies wrong: %v / %v", p.StandbyExit, p.StandbyEntry)
	}
	if p.StandbyWatts != 1.4 || p.L1Watts != 0.7 {
		t.Errorf("power ladder wrong: %v / %v", p.StandbyWatts, p.L1Watts)
	}
	u := DefaultParams(UPI, 1.0)
	if u.StandbyExit != 10*sim.Nanosecond {
		t.Errorf("UPI L0p exit = %v, want 10ns", u.StandbyExit)
	}
}

func TestNoStandbyWithoutAllowL0s(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	eng.Run(sim.Millisecond)
	if l.State() != L0 {
		t.Fatalf("link entered %v without AllowL0s — datacenter config disables L0s", l.State())
	}
	if l.InL0s().Level() {
		t.Fatal("InL0s should be low")
	}
}

func TestAutonomousStandbyEntry(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	if l.State() != L0sEntry {
		t.Fatalf("state %v, want L0s-entry immediately after AllowL0s on idle link", l.State())
	}
	eng.Run(16 * sim.Nanosecond) // L0S_ENTRY_LAT = exit/4 = 16ns
	if l.State() != L0s {
		t.Fatalf("state %v after entry window, want L0s", l.State())
	}
	if !l.InL0s().Level() {
		t.Fatal("InL0s should be high in L0s")
	}
	if l.StandbyEntries() != 1 {
		t.Fatalf("StandbyEntries = %d", l.StandbyEntries())
	}
}

func TestTrafficWakesFromStandby(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	eng.Run(100 * sim.Nanosecond)
	if l.State() != L0s {
		t.Fatal("setup failed")
	}

	l.StartTransaction()
	if l.InL0s().Level() {
		t.Fatal("InL0s must drop immediately on wake (concurrent exit requirement)")
	}
	if l.Wakes() != 1 {
		t.Fatalf("Wakes = %d right after the traffic at %v, want 1", l.Wakes(), eng.Now())
	}
	if l.State() != L0sExit {
		t.Fatalf("state %v, want L0s-exit", l.State())
	}
	if l.ExitDelay() != 64*sim.Nanosecond {
		t.Fatalf("ExitDelay = %v, want 64ns", l.ExitDelay())
	}
	eng.Run(164 * sim.Nanosecond)
	if l.State() != L0 {
		t.Fatalf("state %v after exit latency, want L0", l.State())
	}
}

func TestNoReentryWhileBusy(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	eng.Run(100 * sim.Nanosecond)
	l.StartTransaction()
	eng.Run(sim.Microsecond)
	if l.State() != L0 {
		t.Fatal("link must stay in L0 with an outstanding transaction")
	}
	l.EndTransaction()
	eng.Run(eng.Now() + 16*sim.Nanosecond)
	if l.State() != L0s {
		t.Fatalf("state %v, want L0s after last transaction completes", l.State())
	}
}

func TestEntryAbortedByTraffic(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set() // L0sEntry armed
	eng.Run(8 * sim.Nanosecond)
	l.StartTransaction() // abort during entry window
	if l.State() != L0 {
		t.Fatalf("state %v, want L0 (entry aborted)", l.State())
	}
	if l.Wakes() != 0 {
		t.Fatal("aborting entry is not a wake event")
	}
	eng.Run(sim.Millisecond)
	if l.StandbyEntries() != 0 {
		t.Fatal("link should not have completed standby entry")
	}
}

func TestAllowL0sDeassertExitsStandby(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	eng.Run(100 * sim.Nanosecond)
	l.AllowL0s().Unset() // e.g. a core woke: PC1A exit path
	if l.State() != L0sExit {
		t.Fatalf("state %v, want exiting", l.State())
	}
	if l.Wakes() != 0 {
		t.Fatal("policy-driven exit is not a traffic wake")
	}
	eng.Run(sim.Microsecond)
	if l.State() != L0 {
		t.Fatal("should settle in L0")
	}
	eng.Run(sim.Millisecond)
	if l.State() != L0 {
		t.Fatal("must not re-enter standby with AllowL0s low")
	}
}

func TestAllowL0sDeassertDuringEntry(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	eng.Run(8 * sim.Nanosecond)
	l.AllowL0s().Unset()
	if l.State() != L0 {
		t.Fatalf("state %v, want L0 (entry canceled)", l.State())
	}
}

func TestUPIUsesL0p(t *testing.T) {
	eng := sim.NewEngine()
	l := new(Link).Init(eng, sim.Named("upi0"), DefaultParams(UPI, 1.7), nil)
	if l.StandbyName() != "L0p" {
		t.Fatal("UPI standby should be L0p")
	}
	l.AllowL0s().Set()
	eng.Run(3 * sim.Nanosecond)
	if l.State() != L0s {
		t.Fatalf("UPI should reach partial-width standby in 3ns, state %v", l.State())
	}
	l.StartTransaction()
	if l.ExitDelay() != 10*sim.Nanosecond {
		t.Fatalf("L0p exit = %v, want 10ns", l.ExitDelay())
	}
}

func TestL1EntryExit(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	entered := false
	l.EnterL1(func() { entered = true })
	eng.Run(2 * sim.Microsecond)
	if !entered || l.State() != L1 {
		t.Fatalf("L1 entry failed: entered=%v state=%v", entered, l.State())
	}
	if !l.InL0s().Level() {
		t.Fatal("InL0s covers 'L0s or deeper'; must be high in L1")
	}

	exited := false
	l.ExitL1(func() { exited = true })
	if l.State() != L1Exit {
		t.Fatal("should be exiting L1")
	}
	eng.Run(eng.Now() + 5*sim.Microsecond)
	if !exited || l.State() != L0 {
		t.Fatalf("L1 exit failed: exited=%v state=%v", exited, l.State())
	}
}

func TestL1FromStandby(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	eng.Run(100 * sim.Nanosecond)
	done := false
	l.EnterL1(func() { done = true })
	eng.Run(eng.Now() + 2*sim.Microsecond)
	if !done || l.State() != L1 {
		t.Fatal("L1 entry from L0s failed")
	}
}

func TestTrafficWakesFromL1(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.EnterL1(nil)
	eng.Run(2 * sim.Microsecond)
	if !l.InL0s().Level() {
		t.Fatal("setup failed: InL0s should be high in L1")
	}
	l.StartTransaction()
	if l.Wakes() != 1 {
		t.Fatal("traffic in L1 must generate a wake event")
	}
	if l.InL0s().Level() {
		t.Fatal("InL0s must drop immediately on a wake from L1")
	}
	if l.ExitDelay() != 5*sim.Microsecond {
		t.Fatalf("L1 exit delay = %v, want 5us", l.ExitDelay())
	}
	eng.Run(eng.Now() + 5*sim.Microsecond)
	if l.State() != L0 {
		t.Fatal("link should retrain to L0")
	}
}

func TestEnterL1BusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.StartTransaction()
	defer func() {
		if recover() == nil {
			t.Fatal("EnterL1 on busy link must panic")
		}
	}()
	l.EnterL1(nil)
}

func TestEndTransactionUnderflowPanics(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("EndTransaction on idle link must panic")
		}
	}()
	l.EndTransaction()
}

func TestPowerLadder(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	ch := m.Channel(sim.Named("pcie0"), power.Package)
	l := new(Link).Init(eng, sim.Named("pcie0"), DefaultParams(PCIe, 2.0), ch)

	if m.Power(power.Package) != 2.0 {
		t.Fatalf("L0 power %v", m.Power(power.Package))
	}
	l.AllowL0s().Set()
	eng.Run(100 * sim.Nanosecond)
	if m.Power(power.Package) != 1.4 {
		t.Fatalf("L0s power %v, want 1.4 (70%%)", m.Power(power.Package))
	}
	l.AllowL0s().Unset()
	eng.Run(sim.Microsecond)
	if m.Power(power.Package) != 2.0 {
		t.Fatalf("back-to-L0 power %v", m.Power(power.Package))
	}
	l.EnterL1(nil)
	eng.Run(eng.Now() + 3*sim.Microsecond)
	if m.Power(power.Package) != 0.7 {
		t.Fatalf("L1 power %v, want 0.7 (35%%)", m.Power(power.Package))
	}
}

func TestRepeatedCycles(t *testing.T) {
	eng := sim.NewEngine()
	l := newPCIe(eng)
	l.AllowL0s().Set()
	for i := 0; i < 50; i++ {
		eng.Run(eng.Now() + 100*sim.Nanosecond)
		if l.State() != L0s {
			t.Fatalf("cycle %d: state %v, want L0s", i, l.State())
		}
		l.StartTransaction()
		eng.Run(eng.Now() + 200*sim.Nanosecond)
		l.EndTransaction()
	}
	if l.StandbyEntries() != 50 || l.Wakes() != 50 {
		t.Fatalf("entries=%d wakes=%d, want 50/50", l.StandbyEntries(), l.Wakes())
	}
}
