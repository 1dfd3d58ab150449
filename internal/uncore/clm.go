// Package uncore models the CLM domain of the Skylake-class SoC: the
// caching-and-home agents (CHA), the sliced last-level cache (LLC) and
// snoop filters distributed across the core tiles, and the mesh
// network-on-chip connecting them — the components powered by the two
// Vccclm FIVRs (paper Fig. 1(c), Sec. 4.3).
//
// The CLM has three power regimes in this model:
//
//	accessible   clock running, nominal voltage — LLC servable
//	clock-gated  clock stopped, nominal voltage — dynamic power gone
//	retention    clock stopped, retention voltage — leakage slashed,
//	             LLC/SF state preserved
//
// The paper's CLMR technique (and the PC6 flow) moves between these using
// the ClkGate wire, the Ret wire to the FIVRs, and the PwrOk status.
package uncore

import (
	"agilepkgc/internal/clock"
	"agilepkgc/internal/pdn"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

// Params collects the CLM electrical and power parameters.
type Params struct {
	// ActiveWatts is the accessible-state draw (clock running).
	ActiveWatts float64
	// GatedWatts is the clock-gated draw at nominal voltage: dynamic
	// power removed, full leakage remains.
	GatedWatts float64
	// RetentionWatts is the draw with the clock gated and the Vccclm
	// rails at retention.
	RetentionWatts float64

	// NominalVolts / RetentionVolts / SlewVoltsPerNs parameterize the
	// two CLM FIVRs.
	NominalVolts   float64
	RetentionVolts float64
	SlewVoltsPerNs float64

	// PLLRelock is the CLM PLL re-lock latency (PC6 pays it; PC1A keeps
	// the PLL locked).
	PLLRelock sim.Duration
}

// DefaultParams returns the paper-calibrated CLM parameters (DESIGN.md):
// 18.1 W accessible, 4.6 W in retention; gated-at-nominal sits between
// (leakage-only at 0.8 V).
func DefaultParams() Params {
	return Params{
		ActiveWatts:    18.1,
		GatedWatts:     9.0,
		RetentionWatts: 4.6,
		NominalVolts:   pdn.DefaultNominalVolts,
		RetentionVolts: pdn.DefaultRetentionVolts,
		SlewVoltsPerNs: pdn.DefaultSlewVoltsPerNs,
		PLLRelock:      clock.DefaultRelockLatency,
	}
}

// CLM is the CHA/LLC/mesh domain with its two FIVRs, PLL and clock tree.
type CLM struct {
	eng    *sim.Engine
	params Params

	fivr0, fivr1 pdn.FIVR
	pll          clock.PLL
	tree         clock.Tree

	ch *power.Channel

	onPwrOk   []func()
	settled   [2]bool
	retention bool

	// bound holds the regulators' callbacks, bound to the CLM once.
	bound struct {
		settled [2]func()
		atRet   func()
	}
}

// Init builds an accessible CLM in place and returns c. clmCh and pllCh
// may be nil (tests). Building in
// place lets a machine hold its CLM by value, and rebuilding one
// allocates nothing: the CLM keeps its PwrOk waiters' storage and its
// bound regulator callbacks, but drops the waiters themselves.
func (c *CLM) Init(eng *sim.Engine, p Params, clmCh, pllCh *power.Channel) *CLM {
	clear(c.onPwrOk)
	*c = CLM{
		eng:     eng,
		params:  p,
		ch:      clmCh,
		pll:     c.pll,
		onPwrOk: c.onPwrOk[:0],
		settled: [2]bool{true, true},
		bound:   c.bound,
	}
	if c.bound.atRet == nil {
		c.bound.settled = [2]func(){func() { c.fivrSettled(0) }, func() { c.fivrSettled(1) }}
		c.bound.atRet = c.updatePower
	}
	c.fivr0.Init(eng, "Vccclm0", p.NominalVolts, p.RetentionVolts, p.SlewVoltsPerNs)
	c.fivr1.Init(eng, "Vccclm1", p.NominalVolts, p.RetentionVolts, p.SlewVoltsPerNs)
	c.pll.Init(eng, sim.Named("clm-pll"), p.PLLRelock, pllCh)
	c.tree.Init("clm", &c.pll)

	c.fivr0.OnPwrOk(c.bound.settled[0])
	c.fivr1.OnPwrOk(c.bound.settled[1])
	c.fivr0.OnAtRetention(c.bound.atRet)
	c.fivr1.OnAtRetention(c.bound.atRet)

	c.updatePower()
	return c
}

// PLL returns the CLM PLL (the GPMU turns it off in PC6).
func (c *CLM) PLL() *clock.PLL { return &c.pll }

// Params returns the CLM configuration.
func (c *CLM) Params() Params { return c.params }

// Accessible reports whether the LLC can serve requests: clock running
// and both rails at operational voltage.
func (c *CLM) Accessible() bool {
	return c.tree.Running() && c.fivr0.Settled() && !c.fivr0.InRetention() &&
		c.fivr1.Settled() && !c.fivr1.InRetention()
}

// Gated reports whether the clock tree is gated.
func (c *CLM) Gated() bool { return c.tree.Gated() }

// InRetention reports whether the Ret wire is asserted.
func (c *CLM) InRetention() bool { return c.retention }

// AtRetentionVoltage reports whether both rails have fully reached the
// retention level.
func (c *CLM) AtRetentionVoltage() bool {
	return c.fivr0.AtRetentionVoltage() && c.fivr1.AtRetentionVoltage()
}

// Voltage returns the present Vccclm0 voltage (both rails track).
func (c *CLM) Voltage() float64 { return c.fivr0.Voltage() }

// RampTime returns the full retention↔nominal ramp duration (150 ns with
// default parameters — paper Sec. 5.5).
func (c *CLM) RampTime() sim.Duration { return c.fivr0.RampTime() }

// OnPwrOk registers a callback fired when *both* rails reach operational
// voltage after a ramp-up — the PwrOk wire into the APMU.
func (c *CLM) OnPwrOk(fn func()) { c.onPwrOk = append(c.onPwrOk, fn) }

// ClockGate stops the CLM clock tree (the ClkGate wire). The 1–2 cycle
// latency is charged by the PMU flow driving the wire.
func (c *CLM) ClockGate() {
	c.tree.Gate()
	c.updatePower()
}

// ClockUngate restarts the clock tree; the PLL must be locked.
func (c *CLM) ClockUngate() {
	c.tree.Ungate()
	c.updatePower()
}

// SetRet asserts Ret on both FIVRs: a non-blocking ramp to retention.
func (c *CLM) SetRet() {
	if c.retention {
		return
	}
	c.retention = true
	c.settled = [2]bool{false, false}
	c.fivr0.SetRet()
	c.fivr1.SetRet()
	c.updatePower()
}

// UnsetRet deasserts Ret: both rails ramp back up; PwrOk fires when both
// arrive.
func (c *CLM) UnsetRet() {
	if !c.retention {
		return
	}
	c.retention = false
	c.fivr0.UnsetRet()
	c.fivr1.UnsetRet()
	c.updatePower()
}

func (c *CLM) fivrSettled(i int) {
	c.settled[i] = true
	if c.settled[0] && c.settled[1] {
		c.updatePower()
		for _, fn := range c.onPwrOk {
			fn()
		}
	}
}

// updatePower recomputes the CLM draw from the clock and voltage state.
// While a rail is ramping the draw is approximated by the target regime —
// the ramp lasts 150 ns, short enough that the error is negligible
// relative to the millisecond-scale residencies being measured, and the
// approximation is conservative for PC1A savings (power drops only when
// the ramp *completes* on entry, but rises immediately on exit).
func (c *CLM) updatePower() {
	if c.ch == nil {
		return
	}
	switch {
	case !c.tree.Gated() && !c.retention:
		c.ch.Set(c.params.ActiveWatts)
	case c.retention && c.AtRetentionVoltage():
		c.ch.Set(c.params.RetentionWatts)
	default:
		// Clock gated at (or ramping near) nominal voltage.
		c.ch.Set(c.params.GatedWatts)
	}
}
