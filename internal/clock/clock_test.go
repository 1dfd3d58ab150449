package clock

import (
	"math"
	"testing"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func TestPLLStateString(t *testing.T) {
	if PLLOff.String() != "off" || PLLLocking.String() != "locking" || PLLLocked.String() != "locked" {
		t.Fatal("state names wrong")
	}
	if PLLState(7).String() != "PLLState(7)" {
		t.Fatal("unknown state format wrong")
	}
}

func TestPLLStartsLocked(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("clm"), DefaultRelockLatency, nil)
	if !p.Locked() || p.State() != PLLLocked {
		t.Fatal("PLL should start locked")
	}
	if p.Name() != "clm" {
		t.Fatal("name wrong")
	}
	if p.RelockLatency() != DefaultRelockLatency {
		t.Fatal("relock latency wrong")
	}
}

func TestPLLOffOnRelock(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("x"), 3*sim.Microsecond, nil)
	lockedAt := sim.Time(-1)
	p.OnLocked(func() { lockedAt = eng.Now() })

	p.TurnOff()
	if p.Locked() || p.State() != PLLOff {
		t.Fatal("TurnOff failed")
	}
	eng.Run(sim.Microsecond)
	p.TurnOn()
	if p.State() != PLLLocking {
		t.Fatal("should be locking")
	}
	eng.Run(3 * sim.Microsecond)
	if p.Locked() {
		t.Fatal("locked too early: re-lock takes 3us from TurnOn at 1us")
	}
	eng.Run(4 * sim.Microsecond)
	if !p.Locked() {
		t.Fatal("should be locked after relock latency")
	}
	if lockedAt != 4*sim.Microsecond {
		t.Fatalf("OnLocked at %v, want 4us", lockedAt)
	}
}

func TestPLLIdempotentTransitions(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("x"), sim.Microsecond, nil)
	locks := 0
	p.OnLocked(func() { locks++ })
	p.TurnOn() // already locked: no-op
	eng.Run(2 * sim.Microsecond)
	if locks != 0 {
		t.Fatal("TurnOn on locked PLL should not re-fire OnLocked")
	}
	p.TurnOff()
	p.TurnOff()
	p.TurnOn()
	p.TurnOn() // locking: no-op
	eng.Run(4 * sim.Microsecond)
	if locks != 1 {
		t.Fatalf("OnLocked fired %d times, want 1", locks)
	}
}

func TestPLLTurnOffDuringLockingCancels(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("x"), sim.Microsecond, nil)
	locks := 0
	p.OnLocked(func() { locks++ })
	p.TurnOff()
	p.TurnOn()
	eng.Run(500 * sim.Nanosecond)
	p.TurnOff() // abort the lock
	eng.Run(5 * sim.Microsecond)
	if locks != 0 || p.State() != PLLOff {
		t.Fatalf("aborted lock still completed: locks=%d state=%v", locks, p.State())
	}
}

func TestPLLPowerAccounting(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	ch := m.Channel(sim.Named("pll"), power.Package)
	p := new(PLL).Init(eng, sim.Named("x"), sim.Microsecond, ch)
	if w := m.Power(power.Package); w != ADPLLPowerWatts {
		t.Fatalf("locked PLL power %v, want %v", w, ADPLLPowerWatts)
	}
	p.TurnOff()
	if w := m.Power(power.Package); w != 0 {
		t.Fatalf("off PLL power %v, want 0", w)
	}
	p.TurnOn() // locking consumes power
	if w := m.Power(power.Package); w != ADPLLPowerWatts {
		t.Fatalf("locking PLL power %v, want %v", w, ADPLLPowerWatts)
	}
	// Energy over 1 ms locked ≈ 7 µJ.
	eng.Run(eng.Now() + sim.Millisecond)
	e := m.Energy(power.Package)
	if math.Abs(e-7e-6) > 1e-9 {
		t.Fatalf("PLL energy %v J, want ~7e-6", e)
	}
}

func TestTreeGating(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("clm"), sim.Microsecond, nil)
	tr := new(Tree).Init("clm", p)
	if tr.Name() != "clm" {
		t.Fatal("tree name wrong")
	}
	if !tr.Running() || tr.Gated() {
		t.Fatal("tree should start running")
	}
	tr.Gate()
	if tr.Running() || !tr.Gated() {
		t.Fatal("Gate failed")
	}
	tr.Gate() // idempotent
	tr.Ungate()
	if !tr.Running() {
		t.Fatal("Ungate failed")
	}
}

func TestTreeNotRunningWhenPLLOff(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("clm"), sim.Microsecond, nil)
	tr := new(Tree).Init("clm", p)
	p.TurnOff()
	if tr.Running() {
		t.Fatal("tree cannot run without a locked PLL")
	}
}

func TestUngateWithUnlockedPLLPanics(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("clm"), sim.Microsecond, nil)
	tr := new(Tree).Init("clm", p)
	tr.Gate()
	p.TurnOff()
	defer func() {
		if recover() == nil {
			t.Fatal("Ungate with PLL off must panic")
		}
	}()
	tr.Ungate()
}

// The PC1A-vs-PC6 asymmetry in one test: keeping the PLL locked costs
// 7 mW but lets the clock restart in 0 ns of PLL time; turning it off
// saves 7 mW but costs a microsecond-scale relock.
func TestRelockVsGateAsymmetry(t *testing.T) {
	eng := sim.NewEngine()
	p := new(PLL).Init(eng, sim.Named("clm"), 3*sim.Microsecond, nil)
	tr := new(Tree).Init("clm", p)

	// PC1A-style: gate only.
	tr.Gate()
	tr.Ungate()
	if !tr.Running() {
		t.Fatal("gate/ungate should restore the clock with no PLL delay")
	}

	// PC6-style: PLL off.
	tr.Gate()
	p.TurnOff()
	p.TurnOn()
	eng.Run(eng.Now() + p.RelockLatency())
	tr.Ungate()
	if !tr.Running() {
		t.Fatal("clock should be restored after relock")
	}
}
