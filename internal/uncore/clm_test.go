package uncore

import (
	"testing"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func newCLM(eng *sim.Engine) *CLM {
	return new(CLM).Init(eng, DefaultParams(), nil, nil)
}

func TestInitialAccessible(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	if !c.Accessible() || c.Gated() || c.InRetention() {
		t.Fatal("CLM should start accessible")
	}
	if c.Voltage() != DefaultParams().NominalVolts {
		t.Fatalf("voltage %v", c.Voltage())
	}
}

func TestRampTimeMatchesPaper(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	if c.RampTime() != 150*sim.Nanosecond {
		t.Fatalf("RampTime = %v, want 150ns (300 mV at 2 mV/ns)", c.RampTime())
	}
}

func TestGateThenRetention(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	if c.Accessible() {
		t.Fatal("gated CLM must not be accessible")
	}
	c.SetRet()
	if !c.InRetention() {
		t.Fatal("Ret should be asserted")
	}
	if c.AtRetentionVoltage() {
		t.Fatal("ramp cannot complete instantly")
	}
	eng.Run(150 * sim.Nanosecond)
	if !c.AtRetentionVoltage() {
		t.Fatal("should be at retention after 150ns")
	}
}

func TestPwrOkRequiresBothRails(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	c.SetRet()
	eng.Run(200 * sim.Nanosecond)

	pwrOkAt := sim.Time(-1)
	c.OnPwrOk(func() { pwrOkAt = eng.Now() })
	c.UnsetRet()
	eng.Run(eng.Now() + sim.Microsecond)
	if pwrOkAt != 350*sim.Nanosecond {
		t.Fatalf("PwrOk at %v, want 350ns (200 + 150 ramp, both rails)", pwrOkAt)
	}
	c.ClockUngate()
	if !c.Accessible() {
		t.Fatal("CLM should be accessible after ungate at nominal voltage")
	}
}

func TestPwrOkFiresOncePerExit(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	count := 0
	c.OnPwrOk(func() { count++ })
	for i := 0; i < 3; i++ {
		c.ClockGate()
		c.SetRet()
		eng.Run(eng.Now() + 500*sim.Nanosecond)
		c.UnsetRet()
		eng.Run(eng.Now() + 500*sim.Nanosecond)
		c.ClockUngate()
	}
	if count != 3 {
		t.Fatalf("PwrOk fired %d times, want 3", count)
	}
}

func TestIdempotentRet(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	c.SetRet()
	c.SetRet()
	eng.Run(sim.Microsecond)
	c.UnsetRet()
	c.UnsetRet()
	eng.Run(2 * sim.Microsecond)
	if c.InRetention() {
		t.Fatal("should not be in retention")
	}
	if c.Voltage() != DefaultParams().NominalVolts {
		t.Fatalf("voltage %v", c.Voltage())
	}
}

func TestPowerRegimes(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	ch := m.Channel(sim.Named("clm"), power.Package)
	c := new(CLM).Init(eng, DefaultParams(), ch, nil)

	if w := ch.Watts(); w != 18.1 {
		t.Fatalf("accessible power %v, want 18.1", w)
	}
	c.ClockGate()
	if w := ch.Watts(); w != 9.0 {
		t.Fatalf("gated power %v, want 9.0", w)
	}
	c.SetRet()
	if w := ch.Watts(); w != 9.0 {
		t.Fatalf("power during ramp %v, want 9.0 until retention reached", w)
	}
	eng.Run(150 * sim.Nanosecond)
	if w := ch.Watts(); w != 4.6 {
		t.Fatalf("retention power %v, want 4.6", w)
	}
	c.UnsetRet()
	if w := ch.Watts(); w != 9.0 {
		t.Fatalf("ramp-up power %v, want 9.0 (gated, leaving retention)", w)
	}
	eng.Run(eng.Now() + 150*sim.Nanosecond)
	c.ClockUngate()
	if w := ch.Watts(); w != 18.1 {
		t.Fatalf("restored power %v, want 18.1", w)
	}
}

// PC6-style flow: PLL off during retention forces a relock before the
// clock can be ungated.
func TestPC6StylePLLOff(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	c.SetRet()
	eng.Run(sim.Microsecond)
	c.PLL().TurnOff()

	c.UnsetRet()
	c.PLL().TurnOn()
	eng.Run(eng.Now() + 150*sim.Nanosecond)
	if c.PLL().Locked() {
		t.Fatal("PLL cannot be locked 150ns into a 3us relock")
	}
	eng.Run(eng.Now() + c.Params().PLLRelock)
	c.ClockUngate()
	if !c.Accessible() {
		t.Fatal("CLM should be accessible after relock + ungate")
	}
}

// PC1A-style flow: PLL stays locked, so ungate is possible immediately
// after PwrOk — no relock anywhere.
func TestPC1AStylePLLStaysLocked(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	c.SetRet()
	eng.Run(sim.Microsecond)
	if !c.PLL().Locked() {
		t.Fatal("PC1A keeps the PLL locked")
	}
	done := false
	c.OnPwrOk(func() {
		c.ClockUngate()
		done = true
	})
	c.UnsetRet()
	eng.Run(eng.Now() + 150*sim.Nanosecond)
	if !done || !c.Accessible() {
		t.Fatal("CLM should be accessible 150ns after the wake began")
	}
}

func TestUngateWithPLLOffPanics(t *testing.T) {
	eng := sim.NewEngine()
	c := newCLM(eng)
	c.ClockGate()
	c.PLL().TurnOff()
	defer func() {
		if recover() == nil {
			t.Fatal("ungating with PLL off must panic")
		}
	}()
	c.ClockUngate()
}
