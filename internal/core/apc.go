// Package core implements AgilePkgC (APC) — the paper's contribution: a
// hardware agile power management unit (APMU) realizing PC1A, a deep
// package C-state with nanosecond-scale transition latency that the
// system enters as soon as every core is merely in the *shallow* CC1
// idle state.
//
// The APMU is a fast finite-state machine clocked at 500 MHz that
// orchestrates the Fig. 4 flow over the Fig. 3 signal fabric:
//
//	status:  InCC1 (AND over cores), InL0s (AND over IO links),
//	         PwrOk (CLM FIVRs), WakeUp (from the GPMU)
//	control: AllowL0s (to each IO controller), Allow_CKE_OFF (to each
//	         memory controller), Ret (to the CLM FIVRs), ClkGate (to the
//	         CLM clock tree), InPC1A (to the GPMU)
//
// Its three techniques map onto the packages this one composes:
//
//	IOSM — IO standby mode: links to L0s/L0p, DRAM to CKE-off
//	       (internal/ios, internal/dram)
//	CLMR — CHA/LLC/mesh retention with the PLL kept locked
//	       (internal/uncore, internal/pdn, internal/clock)
//	APMU — this package's FSM
package core

import (
	"fmt"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/uncore"
)

// Config parameterizes the APMU hardware.
type Config struct {
	// ClockHz is the APMU FSM clock (paper: 500 MHz, 2 ns/cycle).
	ClockHz float64
	// ActionCycles is the FSM cost charged per signal-driving step
	// (paper: "1–2 cycles"; we charge the conservative 2).
	ActionCycles int
}

// DefaultConfig returns the paper's APMU parameters.
func DefaultConfig() Config {
	return Config{ClockHz: 500e6, ActionCycles: 2}
}

// cycle returns the duration of ActionCycles FSM cycles.
//
//apcvet:noalloc
func (c Config) cycle() sim.Duration {
	perCycle := 1e9 / c.ClockHz // ns
	return sim.Duration(float64(c.ActionCycles) * perCycle)
}

// APMU is the agile power management unit.
type APMU struct {
	eng *sim.Engine
	cfg Config

	links []*ios.Link
	mcs   []*dram.MC
	clm   *uncore.CLM
	gpmu  *pmu.GPMU

	cc1Tree signal.AndTree // AND over all cores' InCC1 wires
	l0sTree signal.AndTree // AND over all links' InL0s wires
	inCC1   *signal.Signal // cc1Tree's output
	inL0s   *signal.Signal // l0sTree's output

	// inPC1A is the status wire to the GPMU.
	inPC1A signal.Signal

	state   pmu.PkgState // PC0, ACC1 or PC1A
	exiting bool         // PC1A exit flow in flight

	entryEv      sim.Event
	entryArmedAt sim.Time

	onTransition []func(old, new pmu.PkgState)

	// Bookkeeping.
	lastChange   sim.Time
	residency    [pmu.NumPkgStates]sim.Duration
	entries      [pmu.NumPkgStates]uint64
	lastEntryLat sim.Duration // ACC1(IOs idle) → PC1A
	lastExitLat  sim.Duration // wake → ACC1 restored
	exitStart    sim.Time
	pc1aStart    sim.Time

	// bound holds the wake sources' callbacks, bound to the APMU once.
	bound struct {
		inCC1, inL0s, wakeUp func(bool)
		pwrOk                func()
	}
}

// Init wires an APMU into the system in place and returns a: it builds
// the InCC1 and InL0s AND trees over the given cores and links, and
// hooks every wake source. Building in place lets a machine hold its
// APMU by value, and rebuilding one allocates nothing: the APMU keeps
// its trees, wire and observers' storage and its bound callbacks, but
// drops the observers.
func (a *APMU) Init(eng *sim.Engine, cfg Config, cores []*cpu.Core, links []*ios.Link, mcs []*dram.MC, clm *uncore.CLM, gpmu *pmu.GPMU) *APMU {
	clear(a.onTransition)
	*a = APMU{
		eng:          eng,
		cfg:          cfg,
		links:        links,
		mcs:          mcs,
		clm:          clm,
		gpmu:         gpmu,
		state:        pmu.PC0,
		cc1Tree:      a.cc1Tree,
		l0sTree:      a.l0sTree,
		inPC1A:       a.inPC1A,
		onTransition: a.onTransition[:0],
		bound:        a.bound,
	}
	if a.bound.pwrOk == nil {
		a.bound.inCC1, a.bound.inL0s, a.bound.pwrOk = a.onInCC1, a.onInL0s, a.onPwrOk
		a.bound.wakeUp = func(level bool) {
			if level {
				a.wake("gpmu-wakeup")
			}
		}
	}
	a.inPC1A.Init(sim.Named("APMU.InPC1A"), false)

	a.inCC1 = a.cc1Tree.Init(sim.Named("InCC1")).Output()
	for _, c := range cores {
		a.cc1Tree.Add(c.InCC1())
	}
	a.inL0s = a.l0sTree.Init(sim.Named("InL0s")).Output()
	for _, l := range links {
		a.l0sTree.Add(l.InL0s())
	}

	a.inCC1.Subscribe(a.bound.inCC1)
	a.inL0s.Subscribe(a.bound.inL0s)
	if gpmu != nil {
		gpmu.WakeUp().Subscribe(a.bound.wakeUp)
	}
	clm.OnPwrOk(a.bound.pwrOk)

	// A freshly built system may already be fully idle.
	if a.inCC1.Level() {
		a.enterACC1()
	}
	return a
}

// The FSM's action slots are the APMU itself seen as one sim.Handler
// per action: PC1A entry, the exit's signal drive, and the PwrOk
// continuation. Scheduling one allocates nothing.
type (
	entryTimer APMU
	wakeTimer  APMU
	pwrOkTimer APMU
)

// Fire runs the Fig. 4 entry actions.
//
//apcvet:noalloc
func (t *entryTimer) Fire() {
	a := (*APMU)(t)
	a.entryEv = sim.Event{}
	// Conditions may have decayed during the FSM cycle.
	if a.state != pmu.ACC1 || !a.inCC1.Level() || !a.inL0s.Level() {
		return
	}
	// Branch (i): ① clock-gate the CLM, ② begin the non-blocking
	// voltage ramp to retention.
	a.clm.ClockGate()
	a.clm.SetRet()
	// Branch (ii): ③ allow the MCs to enter CKE-off.
	for _, mc := range a.mcs {
		mc.AllowCKEOff().Set()
	}
	// Set InPC1A: the system is now in PC1A (the voltage ramp
	// completes in the background).
	a.inPC1A.Set()
	a.lastEntryLat = a.eng.Now() - a.entryArmedAt
	a.pc1aStart = a.eng.Now()
	a.setState(pmu.PC1A)
}

// Fire drives the exit flow's signals.
//
//apcvet:noalloc
func (t *wakeTimer) Fire() {
	a := (*APMU)(t)
	// Branch (i): ④ unset Ret — CLM FIVRs ramp up; PwrOk continues
	// the flow.
	a.clm.UnsetRet()
	// Branch (ii): ⑥ unset Allow_CKE_OFF — MCs reactivate.
	for _, mc := range a.mcs {
		mc.AllowCKEOff().Unset()
	}
	a.inPC1A.Unset()
}

// Fire finishes the exit once the CLM rails are back.
//
//apcvet:noalloc
func (t *pwrOkTimer) Fire() {
	a := (*APMU)(t)
	a.clm.ClockUngate()
	a.exiting = false
	a.lastExitLat = a.eng.Now() - a.exitStart
	a.setState(pmu.ACC1)
	if !a.inCC1.Level() {
		// Core interrupt: ACC1 → PC0, unset AllowL0s.
		a.leaveACC1()
		return
	}
	// IO-only or timer wake: cores are still idle. Remain in ACC1;
	// when the IOs drain back into L0s the AND tree rises and entry
	// re-arms. If they are somehow already idle and in standby, the
	// level check below re-arms immediately.
	if a.inL0s.Level() {
		a.armEntry()
	}
}

// State returns the APMU's package state (PC0, ACC1 or PC1A).
func (a *APMU) State() pmu.PkgState { return a.state }

// Exiting reports whether the PC1A exit flow is in flight: the state is
// still PC1A (the CLM is ramping back up) but the InPC1A wire has
// already been dropped so downstream agents can wake concurrently.
func (a *APMU) Exiting() bool { return a.exiting }

// InPC1A returns the status wire to the GPMU.
func (a *APMU) InPC1A() *signal.Signal { return &a.inPC1A }

// Residency returns accumulated time in the given state (0 for a value
// that names no state).
//
//apcvet:noalloc
func (a *APMU) Residency(s pmu.PkgState) sim.Duration {
	if uint(s) >= uint(pmu.NumPkgStates) {
		return 0
	}
	r := a.residency[s]
	if s == a.state {
		r += a.eng.Now() - a.lastChange
	}
	return r
}

// Entries returns how many times the given state was entered (0 for a
// value that names no state).
//
//apcvet:noalloc
func (a *APMU) Entries(s pmu.PkgState) uint64 {
	if uint(s) >= uint(pmu.NumPkgStates) {
		return 0
	}
	return a.entries[s]
}

// LastEntryLatency returns the most recent measured blocking entry
// latency (all-IOs-idle to PC1A), paper Sec. 5.5.1.
func (a *APMU) LastEntryLatency() sim.Duration { return a.lastEntryLat }

// LastExitLatency returns the most recent measured exit latency (wake
// event to uncore restored), paper Sec. 5.5.2.
func (a *APMU) LastExitLatency() sim.Duration { return a.lastExitLat }

// OnTransition registers a package-state-change callback.
func (a *APMU) OnTransition(fn func(old, new pmu.PkgState)) {
	a.onTransition = append(a.onTransition, fn)
}

//apcvet:noalloc
func (a *APMU) setState(s pmu.PkgState) {
	if s == a.state {
		return
	}
	old := a.state
	now := a.eng.Now()
	a.residency[old] += now - a.lastChange
	a.lastChange = now
	a.state = s
	a.entries[s]++
	for _, fn := range a.onTransition {
		fn(old, s)
	}
}

// onInCC1 reacts to the all-cores-idle AND tree.
func (a *APMU) onInCC1(level bool) {
	if level {
		// "All Cores in CC1 / Set AllowL0s" — PC0 → ACC1 edge.
		if a.state == pmu.PC0 {
			a.enterACC1()
		}
		return
	}
	// A core is waking: a core interrupt.
	switch a.state {
	case pmu.PC1A:
		a.wake("core-interrupt")
	case pmu.ACC1:
		if !a.exiting {
			a.leaveACC1()
		}
		// If exiting, the exit completion handler will observe the low
		// InCC1 and fall through to PC0.
	}
}

// onInL0s reacts to the all-IOs-in-standby AND tree.
func (a *APMU) onInL0s(level bool) {
	if level {
		// "&InL0s" condition of Fig. 4: arm PC1A entry.
		a.armEntry()
		return
	}
	// An IO link detected traffic and began exiting L0s.
	if a.state == pmu.PC1A {
		a.wake("io-traffic")
	} else if a.entryEv.Pending() {
		a.entryEv.Cancel()
		a.entryEv = sim.Event{}
	}
}

// enterACC1: the system has left PC0 because every core reached CC1.
// The APMU sets AllowL0s; each IO controller then autonomously enters
// L0s once its link is idle.
func (a *APMU) enterACC1() {
	a.setState(pmu.ACC1)
	for _, l := range a.links {
		l.AllowL0s().Set()
	}
	// The links may already be in standby from a previous episode (IO
	// wake that never reached the cores), in which case the AND tree is
	// already high and no edge will fire.
	if a.inL0s.Level() {
		a.armEntry()
	}
}

// leaveACC1: a core interrupt arrived before PC1A was entered. Unset
// AllowL0s: links return to L0.
//
//apcvet:noalloc
func (a *APMU) leaveACC1() {
	a.entryEv.Cancel()
	a.entryEv = sim.Event{}
	for _, l := range a.links {
		l.AllowL0s().Unset()
	}
	a.setState(pmu.PC0)
}

// armEntry schedules the Fig. 4 entry actions after one FSM action slot.
//
//apcvet:noalloc
func (a *APMU) armEntry() {
	if a.state != pmu.ACC1 || a.exiting || a.entryEv.Pending() {
		return
	}
	a.entryArmedAt = a.eng.Now()
	a.entryEv = a.eng.Schedule(a.cfg.cycle(), (*entryTimer)(a))
}

// wake begins the Fig. 4 exit flow. reason is for tracing only.
func (a *APMU) wake(reason string) {
	if a.state != pmu.PC1A || a.exiting {
		return
	}
	_ = reason
	a.exiting = true
	a.exitStart = a.eng.Now()
	// One FSM action slot to drive the exit signals.
	a.eng.Schedule(a.cfg.cycle(), (*wakeTimer)(a))
}

// onPwrOk: ⑤ the CLM rails are back at operational voltage; clock-ungate
// and settle in ACC1 (or fall through to PC0 if a core interrupt caused
// the wake).
func (a *APMU) onPwrOk() {
	if !a.exiting {
		return
	}
	a.eng.Schedule(a.cfg.cycle(), (*pwrOkTimer)(a))
}

// Describe returns a one-line summary for experiment logs.
func (a *APMU) Describe() string {
	return fmt.Sprintf("APMU state=%s entries(PC1A)=%d residency(PC1A)=%v",
		a.state, a.Entries(pmu.PC1A), a.Residency(pmu.PC1A))
}
