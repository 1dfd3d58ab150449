// Package pdn models the power delivery network of the Skylake-class SoC:
// fully integrated voltage regulators (FIVRs) with finite slew rate,
// pre-programmed retention voltage (RVID), preemptive voltage commands,
// and a PwrOk status output — everything the paper's CLMR technique
// (Sec. 4.3, 5.2) relies on.
package pdn

import (
	"fmt"

	"agilepkgc/internal/sim"
)

// Default electrical parameters, from the paper (Sec. 5.5) and its
// references [12, 51]: FIVR slew ≥ 2 mV/ns, CLM nominal ~0.8 V and
// retention ~0.5 V.
const (
	DefaultSlewVoltsPerNs = 0.002 // 2 mV/ns
	DefaultNominalVolts   = 0.80
	DefaultRetentionVolts = 0.50
)

// FIVR is a fully integrated voltage regulator with a linear-ramp model.
//
// The regulator exposes the two interfaces the APMU uses:
//
//   - SetRet / UnsetRet — the Ret control signal. Set ramps the output to
//     the pre-programmed retention voltage (RVID register); Unset ramps
//     back to the previous operational voltage.
//   - OnPwrOk — the PwrOk status signal, fired when the output reaches an
//     *operational* (non-retention) target after a ramp-up.
//
// Commands are preemptive (paper footnote 11): a new target issued during
// a ramp retargets from the present output voltage immediately.
type FIVR struct {
	eng  *sim.Engine
	name string

	slew float64 // volts per nanosecond

	// Ramp state: output voltage is v0 at time t0, moving toward target.
	v0     float64
	t0     sim.Time
	target float64

	// Saved operational voltage to return to when Ret is unset.
	operational float64
	retention   float64 // RVID: pre-programmed retention voltage
	inRet       bool

	rampDone sim.Event // pending ramp completion, fired as a rampTimer
	onPwrOk  func()
	onAtRet  func()
}

// rampTimer is a regulator's ramp-completion event: the FIVR itself,
// seen as a sim.Handler.
type rampTimer FIVR

// Fire completes the ramp in flight: PwrOk after a ramp up, the
// at-retention notification after a ramp down to retention.
//
//apcvet:noalloc
func (t *rampTimer) Fire() {
	f := (*FIVR)(t)
	f.rampDone = sim.Event{}
	if f.target == f.retention && f.inRet {
		if f.onAtRet != nil {
			f.onAtRet()
		}
		return
	}
	if f.onPwrOk != nil {
		f.onPwrOk()
	}
}

// Init builds the regulator in place, settled at the operational
// voltage with no callbacks, and returns f. Building in place lets the
// CLM hold its two regulators by value.
func (f *FIVR) Init(eng *sim.Engine, name string, operational, retention, slewVoltsPerNs float64) *FIVR {
	if operational <= retention {
		panic(fmt.Sprintf("pdn: operational %gV must exceed retention %gV", operational, retention))
	}
	if slewVoltsPerNs <= 0 {
		panic("pdn: slew must be positive")
	}
	*f = FIVR{
		eng:         eng,
		name:        name,
		slew:        slewVoltsPerNs,
		v0:          operational,
		target:      operational,
		operational: operational,
		retention:   retention,
	}
	return f
}

// Name returns the regulator's name.
func (f *FIVR) Name() string { return f.name }

// Voltage returns the present output voltage, interpolating along any
// in-flight ramp.
func (f *FIVR) Voltage() float64 {
	elapsed := float64(f.eng.Now() - f.t0) // ns
	delta := f.target - f.v0
	maxStep := f.slew * elapsed
	switch {
	case delta > 0 && maxStep < delta:
		return f.v0 + maxStep
	case delta < 0 && maxStep < -delta:
		return f.v0 - maxStep
	default:
		return f.target
	}
}

// Settled reports whether the output has reached the current target.
func (f *FIVR) Settled() bool { return f.Voltage() == f.target }

// InRetention reports whether the Ret signal is currently asserted.
func (f *FIVR) InRetention() bool { return f.inRet }

// AtRetentionVoltage reports whether the output has fully reached the
// retention level.
func (f *FIVR) AtRetentionVoltage() bool {
	return f.inRet && f.Settled() && f.target == f.retention
}

// OnPwrOk registers the PwrOk callback, invoked whenever a ramp to an
// operational (non-retention) voltage completes.
func (f *FIVR) OnPwrOk(fn func()) { f.onPwrOk = fn }

// OnAtRetention registers a callback fired when a ramp down to retention
// completes. The paper's entry flow does not wait for it (the transition
// is non-blocking), but the power model uses it to know when CLM power
// has fully dropped, and tests use it to verify slew timing.
func (f *FIVR) OnAtRetention(fn func()) { f.onAtRet = fn }

// SetRet asserts the Ret signal: ramp down to the RVID retention voltage.
// Idempotent while already asserted.
func (f *FIVR) SetRet() {
	if f.inRet {
		return
	}
	f.inRet = true
	f.retarget(f.retention)
}

// UnsetRet deasserts Ret: ramp back to the saved operational voltage.
// PwrOk fires when the ramp completes. Idempotent while deasserted.
func (f *FIVR) UnsetRet() {
	if !f.inRet {
		return
	}
	f.inRet = false
	f.retarget(f.operational)
}

// RampTime returns how long a full swing between retention and
// operational voltage takes at the configured slew rate.
func (f *FIVR) RampTime() sim.Duration {
	return f.rampDuration(f.retention, f.operational)
}

func (f *FIVR) rampDuration(from, to float64) sim.Duration {
	dv := to - from
	if dv < 0 {
		dv = -dv
	}
	// Round up to whole nanoseconds, with a small tolerance so that an
	// exact ratio computed in floating point (e.g. 0.3 V / 0.002 V/ns)
	// does not spill into an extra nanosecond.
	ns := dv / f.slew
	d := sim.Duration(ns)
	if float64(d) < ns-1e-6 {
		d++
	}
	return d
}

// retarget preemptively begins a ramp from the present voltage.
func (f *FIVR) retarget(v float64) {
	cur := f.Voltage()
	f.rampDone.Cancel()
	f.v0 = cur
	f.t0 = f.eng.Now()
	f.target = v
	d := f.rampDuration(cur, v)
	f.rampDone = f.eng.Schedule(d, (*rampTimer)(f))
}
