package dram

import (
	"math"
	"testing"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func newMC(eng *sim.Engine) *MC {
	return new(MC).Init(eng, sim.Named("mc0"), DefaultParams(), PPD, nil, nil)
}

func TestModeStrings(t *testing.T) {
	if Active.String() != "active" || PowerDown.String() != "CKE-off" || SelfRefresh.String() != "self-refresh" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode format")
	}
	if APD.String() != "APD" || PPD.String() != "PPD" {
		t.Fatal("CKE kind names wrong")
	}
}

func TestStaysActiveWithoutAllow(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	eng.Run(sim.Millisecond)
	if mc.Mode() != Active {
		t.Fatalf("mode %v without Allow_CKE_OFF, want active", mc.Mode())
	}
}

func TestCKEOffEntry(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.AllowCKEOff().Set()
	eng.Run(10 * sim.Nanosecond) // paper: entry within 10 ns
	if mc.Mode() != PowerDown {
		t.Fatalf("mode %v after 10ns, want CKE-off", mc.Mode())
	}
	if !mc.InCKEOff().Level() {
		t.Fatal("InCKEOff should be high")
	}
	if mc.CKEEntries() != 1 {
		t.Fatalf("CKEEntries = %d", mc.CKEEntries())
	}
}

func TestCKEOffExitOnUnset(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.AllowCKEOff().Set()
	eng.Run(20 * sim.Nanosecond)
	mc.AllowCKEOff().Unset()
	if mc.Mode() != Active {
		t.Fatal("mode should return to active immediately on unset")
	}
	if mc.InCKEOff().Level() {
		t.Fatal("InCKEOff should drop")
	}
	eng.Run(sim.Millisecond)
	if mc.Mode() != Active {
		t.Fatal("must not re-enter with Allow low")
	}
}

func TestAccessFromActiveNoPenalty(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	var doneAt sim.Time = -1
	lat := mc.Access(func() { doneAt = eng.Now() })
	if lat != DefaultParams().AccessLatency {
		t.Fatalf("latency %v, want bare access latency", lat)
	}
	eng.Run(sim.Microsecond)
	if doneAt != sim.Time(DefaultParams().AccessLatency) {
		t.Fatalf("done at %v", doneAt)
	}
	if mc.Accesses() != 1 {
		t.Fatal("access not counted")
	}
}

func TestAccessFromCKEOffPays24ns(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.AllowCKEOff().Set()
	eng.Run(20 * sim.Nanosecond)
	lat := mc.Access(nil)
	want := DefaultParams().CKEExit + DefaultParams().AccessLatency
	if lat != want {
		t.Fatalf("latency %v, want %v (24ns exit + access)", lat, want)
	}
	if mc.Mode() != Active {
		t.Fatal("access should force active mode")
	}
}

func TestReentryAfterDrain(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.AllowCKEOff().Set()
	eng.Run(20 * sim.Nanosecond)
	mc.Access(nil)
	mc.Access(nil) // two outstanding
	eng.Run(eng.Now() + 50*sim.Nanosecond)
	if mc.Mode() != Active {
		t.Fatal("should be active while draining")
	}
	eng.Run(eng.Now() + sim.Microsecond)
	if mc.Mode() != PowerDown {
		t.Fatalf("mode %v after drain, want CKE-off (Allow still set)", mc.Mode())
	}
	if mc.CKEEntries() != 2 {
		t.Fatalf("CKEEntries = %d, want 2", mc.CKEEntries())
	}
}

func TestSelfRefreshEntryExit(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	entered := false
	mc.EnterSelfRefresh(func() { entered = true })
	eng.Run(sim.Microsecond)
	if !entered || mc.Mode() != SelfRefresh {
		t.Fatalf("SR entry failed: %v %v", entered, mc.Mode())
	}
	if mc.SREntries() != 1 {
		t.Fatal("SR entry not counted")
	}
	if !mc.InCKEOff().Level() {
		t.Fatal("SR is CKE-off or deeper")
	}
	exited := false
	mc.ExitSelfRefresh(func() { exited = true })
	eng.Run(eng.Now() + 5*sim.Microsecond)
	if !exited || mc.Mode() != Active {
		t.Fatalf("SR exit failed: %v %v", exited, mc.Mode())
	}
}

func TestSelfRefreshIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.EnterSelfRefresh(nil)
	eng.Run(2 * sim.Microsecond)
	called := false
	mc.EnterSelfRefresh(func() { called = true }) // already in SR
	if !called {
		t.Fatal("EnterSelfRefresh on SR should call done immediately")
	}
	called = false
	mc.ExitSelfRefresh(nil)
	eng.Run(eng.Now() + 10*sim.Microsecond)
	mc.ExitSelfRefresh(func() { called = true }) // already active
	if !called {
		t.Fatal("ExitSelfRefresh on active should call done immediately")
	}
}

func TestAccessFromSelfRefreshPaysMicroseconds(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.EnterSelfRefresh(nil)
	eng.Run(2 * sim.Microsecond)
	lat := mc.Access(nil)
	want := DefaultParams().SRExit + DefaultParams().AccessLatency
	if lat != want {
		t.Fatalf("latency %v, want %v — SR exit is microseconds, the reason PC1A avoids it", lat, want)
	}
}

func TestEnterSelfRefreshBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.Access(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("EnterSelfRefresh while busy must panic")
		}
	}()
	mc.EnterSelfRefresh(nil)
}

func TestSREntryAbortedByRace(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.EnterSelfRefresh(nil)
	eng.Run(200 * sim.Nanosecond) // entry takes 1us; inject traffic mid-window
	mc.Access(nil)
	eng.Run(eng.Now() + 20*sim.Microsecond)
	if mc.Mode() == SelfRefresh {
		t.Fatal("SR entry should have been aborted by the racing access")
	}
}

func TestBackgroundPowerLadder(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	p := DefaultParams()
	p.AccessEnergyJoules = 0 // background only
	mc := new(MC).Init(eng, sim.Named("mc0"), p, PPD, m.Channel(sim.Named("mc0"), power.Package), m.Channel(sim.Named("dimm0"), power.DRAM))

	if m.Power(power.Package) != 0.50 || m.Power(power.DRAM) != 2.75 {
		t.Fatalf("active power %v/%v", m.Power(power.Package), m.Power(power.DRAM))
	}
	mc.AllowCKEOff().Set()
	eng.Run(20 * sim.Nanosecond)
	if m.Power(power.Package) != 0.35 || m.Power(power.DRAM) != 0.805 {
		t.Fatalf("CKE-off power %v/%v", m.Power(power.Package), m.Power(power.DRAM))
	}
	mc.AllowCKEOff().Unset()
	mc.EnterSelfRefresh(nil)
	eng.Run(eng.Now() + 2*sim.Microsecond)
	if m.Power(power.Package) != 0.175 || m.Power(power.DRAM) != 0.255 {
		t.Fatalf("SR power %v/%v", m.Power(power.Package), m.Power(power.DRAM))
	}
}

func TestAccessEnergyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	p := DefaultParams()
	p.DRAMActiveWatts = 0 // isolate dynamic energy
	p.MCActiveWatts = 0
	mc := new(MC).Init(eng, sim.Named("mc0"), p, PPD, m.Channel(sim.Named("mc0"), power.Package), m.Channel(sim.Named("dimm0"), power.DRAM))

	n := 100
	for i := 0; i < n; i++ {
		mc.Access(nil)
		eng.Run(eng.Now() + sim.Microsecond)
	}
	want := float64(n) * p.AccessEnergyJoules
	got := m.Energy(power.DRAM)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("dynamic energy %v J, want %v J", got, want)
	}
}

func TestManyCKECycles(t *testing.T) {
	eng := sim.NewEngine()
	mc := newMC(eng)
	mc.AllowCKEOff().Set()
	for i := 0; i < 100; i++ {
		eng.Run(eng.Now() + 100*sim.Nanosecond)
		if mc.Mode() != PowerDown {
			t.Fatalf("cycle %d: not in CKE-off", i)
		}
		mc.Access(nil)
		eng.Run(eng.Now() + 500*sim.Nanosecond)
	}
	if mc.Accesses() != 100 {
		t.Fatalf("accesses = %d", mc.Accesses())
	}
	if mc.CKEEntries() < 100 {
		t.Fatalf("CKE entries = %d, want ≥100", mc.CKEEntries())
	}
}
