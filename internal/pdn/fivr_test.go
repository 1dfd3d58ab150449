package pdn

import (
	"testing"
	"testing/quick"

	"agilepkgc/internal/sim"
)

func newTestFIVR(eng *sim.Engine) *FIVR {
	return new(FIVR).Init(eng, "clm0", DefaultNominalVolts, DefaultRetentionVolts, DefaultSlewVoltsPerNs)
}

func TestInitialState(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	if f.Voltage() != DefaultNominalVolts {
		t.Fatalf("initial voltage %v", f.Voltage())
	}
	if !f.Settled() || f.InRetention() || f.AtRetentionVoltage() {
		t.Fatal("initial flags wrong")
	}
	if f.Name() != "clm0" {
		t.Fatal("name wrong")
	}
}

// Paper Sec 5.5: 300 mV swing at 2 mV/ns = 150 ns.
func TestRampTimeMatchesPaper(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	if got := f.RampTime(); got != 150*sim.Nanosecond {
		t.Fatalf("RampTime = %v, want 150ns", got)
	}
}

func TestRampDownToRetention(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	reachedAt := sim.Time(-1)
	f.OnAtRetention(func() { reachedAt = eng.Now() })

	f.SetRet()
	if !f.InRetention() {
		t.Fatal("InRetention should be true immediately after SetRet")
	}
	if f.AtRetentionVoltage() {
		t.Fatal("voltage cannot reach retention instantly")
	}

	eng.Run(75 * sim.Nanosecond) // halfway: 0.8 - 0.002*75 = 0.65
	if v := f.Voltage(); !(v > 0.649 && v < 0.651) {
		t.Fatalf("midpoint voltage %v, want ~0.65", v)
	}

	eng.Run(150 * sim.Nanosecond)
	if !f.AtRetentionVoltage() {
		t.Fatal("should be at retention after 150ns")
	}
	if reachedAt != 150*sim.Nanosecond {
		t.Fatalf("OnAtRetention at %v, want 150ns", reachedAt)
	}
}

func TestRampUpFiresPwrOk(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	f.SetRet()
	eng.Run(200 * sim.Nanosecond)

	pwrOkAt := sim.Time(-1)
	f.OnPwrOk(func() { pwrOkAt = eng.Now() })
	f.UnsetRet()
	eng.Run(400 * sim.Nanosecond)

	if pwrOkAt != 350*sim.Nanosecond {
		t.Fatalf("PwrOk at %v, want 350ns (200 + 150 ramp)", pwrOkAt)
	}
	if f.Voltage() != DefaultNominalVolts {
		t.Fatalf("voltage %v after ramp up", f.Voltage())
	}
}

// Preemptive voltage commands (paper footnote 11): an exit during the
// entry ramp retargets from the current voltage, so the exit is faster
// than a full 150 ns swing.
func TestPreemptiveCommand(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	pwrOkAt := sim.Time(-1)
	f.OnPwrOk(func() { pwrOkAt = eng.Now() })

	f.SetRet()
	eng.Run(50 * sim.Nanosecond) // ramped down 100 mV, at 0.7 V
	if v := f.Voltage(); !(v > 0.699 && v < 0.701) {
		t.Fatalf("voltage %v, want ~0.7", v)
	}
	f.UnsetRet() // needs only 100 mV / 2mV/ns = 50 ns back up
	eng.Run(sim.Microsecond)

	if pwrOkAt != 100*sim.Nanosecond {
		t.Fatalf("PwrOk at %v, want 100ns", pwrOkAt)
	}
}

func TestIdempotentSignals(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFIVR(eng)
	retDone := 0
	f.OnAtRetention(func() { retDone++ })
	f.SetRet()
	f.SetRet() // must not restart the ramp
	eng.Run(sim.Microsecond)
	if retDone != 1 {
		t.Fatalf("OnAtRetention fired %d times", retDone)
	}
	pwrOk := 0
	f.OnPwrOk(func() { pwrOk++ })
	f.UnsetRet()
	f.UnsetRet()
	eng.Run(2 * sim.Microsecond)
	if pwrOk != 1 {
		t.Fatalf("PwrOk fired %d times", pwrOk)
	}
}

func TestConstructorValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, fn := range []func(){
		func() { new(FIVR).Init(eng, "x", 0.5, 0.8, 0.002) }, // operational <= retention
		func() { new(FIVR).Init(eng, "x", 0.8, 0.5, 0) },     // zero slew
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

// Property: voltage always stays within [retention, operational] under
// arbitrary interleavings of SetRet/UnsetRet at arbitrary times.
func TestPropertyVoltageBounded(t *testing.T) {
	f := func(ops []bool, gaps []uint8) bool {
		eng := sim.NewEngine()
		fv := newTestFIVR(eng)
		for i, set := range ops {
			g := sim.Duration(20)
			if i < len(gaps) {
				g = sim.Duration(gaps[i])
			}
			eng.Run(eng.Now() + g)
			if set {
				fv.SetRet()
			} else {
				fv.UnsetRet()
			}
			v := fv.Voltage()
			if v < DefaultRetentionVolts-1e-9 || v > DefaultNominalVolts+1e-9 {
				return false
			}
		}
		eng.Run(eng.Now() + sim.Microsecond)
		v := fv.Voltage()
		return v >= DefaultRetentionVolts-1e-9 && v <= DefaultNominalVolts+1e-9 && fv.Settled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any history, UnsetRet followed by enough time always
// restores the operational voltage and fires PwrOk exactly once.
func TestPropertyRecovery(t *testing.T) {
	f := func(ops []bool) bool {
		eng := sim.NewEngine()
		fv := newTestFIVR(eng)
		for _, set := range ops {
			eng.Run(eng.Now() + 13*sim.Nanosecond)
			if set {
				fv.SetRet()
			} else {
				fv.UnsetRet()
			}
		}
		count := 0
		fv.OnPwrOk(func() { count++ })
		wasRet := fv.InRetention()
		fv.UnsetRet()
		eng.Run(eng.Now() + sim.Microsecond)
		if fv.Voltage() != DefaultNominalVolts {
			return false
		}
		// PwrOk must fire iff a ramp-up actually happened (we were in
		// retention, or mid-ramp toward it).
		if wasRet && count != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
