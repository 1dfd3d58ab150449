// Package pmu implements the firmware-based global power management unit
// (GPMU) of the server SoC and the package C-state machinery it owns:
// the PC0 → PC2 → PC6 entry/exit flow of paper Fig. 2.
//
// The GPMU is deliberately slow: it is a microcontroller running firmware
// that coordinates devices by exchanging messages, so every flow step
// costs microseconds. That firmware cost — plus the deep device states it
// selects (IO L1, DRAM self-refresh, PLLs off, CLM retention) — is why
// PC6 transitions take >50 µs and why the paper's hardware APMU with
// shallow device states is >250× faster.
package pmu

import (
	"fmt"

	"agilepkgc/internal/clock"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/uncore"
)

// PkgState enumerates package C-states across both PMUs (GPMU and APMU).
type PkgState int

const (
	// PC0: at least one core active (or the flow fully unwound).
	PC0 PkgState = iota
	// PC2: non-architectural transient between PC0 and deeper states.
	PC2
	// PC6: deep package C-state — IOs in L1, DRAM self-refreshing, PLLs
	// off, CLM in retention.
	PC6
	// ACC1: APC's transient "all cores in CC1" state (paper Fig. 4).
	ACC1
	// PC1A: APC's agile deep package C-state.
	PC1A

	// NumPkgStates is the number of package states: per-state
	// accounting is an array indexed by state.
	NumPkgStates = int(PC1A) + 1
)

// String names the state.
func (s PkgState) String() string {
	switch s {
	case PC0:
		return "PC0"
	case PC2:
		return "PC2"
	case PC6:
		return "PC6"
	case ACC1:
		return "ACC1"
	case PC1A:
		return "PC1A"
	default:
		return fmt.Sprintf("PkgState(%d)", int(s))
	}
}

// Config parameterizes the GPMU.
type Config struct {
	// EnablePC6 allows the PC6 flow (the Cdeep baseline). Datacenter
	// configurations disable it.
	EnablePC6 bool
	// StepLatency is the firmware message/handshake cost charged per
	// flow step.
	StepLatency sim.Duration
	// Hysteresis is how long all cores must remain in CC6 before the
	// entry flow starts (demotion filter).
	Hysteresis sim.Duration
}

// DefaultConfig returns firmware costs that land the full PC6 round trip
// above 50 µs, as the paper's Table 1 reports.
func DefaultConfig(enablePC6 bool) Config {
	return Config{
		EnablePC6:   enablePC6,
		StepLatency: 6 * sim.Microsecond,
		Hysteresis:  2 * sim.Microsecond,
	}
}

// GPMU is the firmware global power management unit.
type GPMU struct {
	eng   *sim.Engine
	cfg   Config
	cores []*cpu.Core
	links []*ios.Link
	mcs   []*dram.MC
	clm   *uncore.CLM

	// extraPLLs are the non-core, non-CLM PLLs (per-IO-controller and
	// the GPMU's own) that the PC6 flow powers off — paper Sec. 5.4
	// counts 8 such PLLs including the CLM's.
	extraPLLs []*clock.PLL

	state     PkgState
	deepCount int // cores currently in CC6

	// wakeUp is the WakeUp wire into the APMU (paper Fig. 3): pulsed on
	// interrupts, timer expirations and thermal events.
	wakeUp signal.Signal

	hystEv      sim.Event
	flowActive  bool     // an entry/exit flow is running
	pendingWake bool     // wake arrived mid-entry; unwind at next step
	exitStart   sim.Time // when the running exit flow began

	// step is the PC6 flow's pending step. The flow runs one step at a
	// time, from the hysteresis window through entry or exit, so every
	// step fires the GPMU as one flowTimer.
	step flowStep

	onTransition []func(old, new PkgState)

	// Residency bookkeeping.
	lastChange sim.Time
	residency  [NumPkgStates]sim.Duration
	entries    [NumPkgStates]uint64
	pc6Latency sim.Duration // measured last entry→ready-to-exit→PC0 cost

	// fullIdle counts the cores' full-idle periods, the PC1A
	// opportunity, from the transitions the GPMU observes anyway.
	fullIdle cpu.FullIdle

	// bound holds the cores' callbacks, bound to the GPMU once: one of
	// each kind serves every core.
	bound struct {
		transition func(old, new cpu.CState)
		inCC1      func(bool)
	}
}

// Init builds a GPMU in place, supervising the given devices, and
// returns g. Building in place lets a machine hold its GPMU by value,
// and rebuilding one allocates nothing: the GPMU keeps its wire's and
// observers' storage and its bound callbacks, but drops the observers
// and the attached PLLs.
func (g *GPMU) Init(eng *sim.Engine, cfg Config, cores []*cpu.Core, links []*ios.Link, mcs []*dram.MC, clm *uncore.CLM) *GPMU {
	clear(g.onTransition)
	*g = GPMU{
		eng:          eng,
		cfg:          cfg,
		cores:        cores,
		links:        links,
		mcs:          mcs,
		clm:          clm,
		state:        PC0,
		wakeUp:       g.wakeUp,
		onTransition: g.onTransition[:0],
		bound:        g.bound,
	}
	if g.bound.transition == nil {
		g.bound.transition, g.bound.inCC1 = g.coreTransition, g.inCC1Edge
	}
	g.wakeUp.Init(sim.Named("GPMU.WakeUp"), false)
	g.fullIdle.Init(cores, eng.Now())
	for _, c := range cores {
		c.OnTransition(g.bound.transition)
		if c.State() == cpu.CC6 {
			g.deepCount++
		}
		c.InCC1().Subscribe(g.bound.inCC1)
	}
	return g
}

// inCC1Edge reacts to any core's InCC1 wire. The PMA drops InCC1 the
// moment a wake begins — the GPMU starts unwinding the package
// immediately, concurrently with the core's own (133 µs) CC6 exit.
// This is why the paper's Table 1 footnote distinguishes "open the
// path to memory" from the full resume latency.
func (g *GPMU) inCC1Edge(level bool) {
	if !level {
		g.wakeFromDeep()
	}
}

// AttachPLLs registers additional PLLs (IO controllers, GPMU clock) to be
// powered off during PC6 and re-locked on exit. The first call keeps
// plls itself rather than a copy.
func (g *GPMU) AttachPLLs(plls ...*clock.PLL) {
	if g.extraPLLs == nil {
		g.extraPLLs = plls
		return
	}
	g.extraPLLs = append(g.extraPLLs, plls...)
}

// State returns the GPMU's package state.
func (g *GPMU) State() PkgState { return g.state }

// WakeUp returns the WakeUp wire consumed by the APMU.
func (g *GPMU) WakeUp() *signal.Signal { return &g.wakeUp }

// OnTransition registers a package-state-change callback.
func (g *GPMU) OnTransition(fn func(old, new PkgState)) {
	g.onTransition = append(g.onTransition, fn)
}

// Residency returns accumulated time in the given state.
func (g *GPMU) Residency(s PkgState) sim.Duration {
	if s == g.state {
		return g.residency[s] + (g.eng.Now() - g.lastChange)
	}
	return g.residency[s]
}

// FullIdle returns the counters of the cores' full-idle periods.
//
//apcvet:noalloc
func (g *GPMU) FullIdle() *cpu.FullIdle { return &g.fullIdle }

// Entries returns how many times the given state was entered.
func (g *GPMU) Entries(s PkgState) uint64 { return g.entries[s] }

//apcvet:noalloc
func (g *GPMU) setState(s PkgState) {
	if s == g.state {
		return
	}
	old := g.state
	now := g.eng.Now()
	g.residency[old] += now - g.lastChange
	g.lastChange = now
	g.state = s
	g.entries[s]++
	for _, fn := range g.onTransition {
		fn(old, s)
	}
}

// FireTimer models a timer expiration or thermal event: the GPMU pulses
// the WakeUp wire (for the APMU) and unwinds its own flow if any.
func (g *GPMU) FireTimer() {
	g.wakeUp.Set()
	g.wakeUp.Unset()
	g.wakeFromDeep()
}

// coreTransition counts full-idle time, tracks CC6 occupancy and
// reacts to core activity.
func (g *GPMU) coreTransition(old, new cpu.CState) {
	g.fullIdle.Transition(old, new, g.eng.Now())
	if old == cpu.CC6 {
		g.deepCount--
	}
	if new == cpu.CC6 {
		g.deepCount++
	}
	if new == cpu.CC6 && g.deepCount == len(g.cores) {
		g.armEntry()
		return
	}
	if old == cpu.CC6 || new == cpu.CC0 {
		// A core is waking: abort/unwind any deep flow.
		g.wakeFromDeep()
	}
}

// allDeepAndQuiet reports whether every core is settled in CC6 with no
// wake in flight (a waking core keeps its CC6 state for the 133 µs exit,
// but its InCC1 wire is already low).
//
//apcvet:noalloc
func (g *GPMU) allDeepAndQuiet() bool {
	if g.deepCount != len(g.cores) {
		return false
	}
	for _, c := range g.cores {
		if !c.InCC1().Level() {
			return false
		}
	}
	return true
}

// flowStep names a step of the PC6 flow.
type flowStep uint8

const (
	stepHysteresis flowStep = iota // the hysteresis window ends
	stepQuiesce                    // entry: IOs to L1, DRAM to self-refresh
	stepGate                       // entry: clock-gate, PLLs off
	stepRetain                     // entry: CLM voltage to retention
	stepLand                       // entry: land in PC6
	stepExit                       // exit: every device has unwound
)

// flowTimer is the GPMU seen as the sim.Handler of its pending step.
type flowTimer GPMU

// Fire runs the flow's pending step, named by step.
//
//apcvet:noalloc
func (t *flowTimer) Fire() {
	g := (*GPMU)(t)
	switch g.step {
	case stepHysteresis:
		g.hysteresisDone()
	case stepQuiesce:
		g.entryQuiesce()
	case stepGate:
		g.entryGate()
	case stepRetain:
		g.entryRetain()
	case stepLand:
		g.entryDone()
	case stepExit:
		g.exitDone()
	}
}

// schedule arms the flow's next step after d.
//
//apcvet:noalloc
func (g *GPMU) schedule(d sim.Duration, step flowStep) sim.Event {
	g.step = step
	return g.eng.Schedule(d, (*flowTimer)(g))
}

// armEntry schedules the PC6 entry after the hysteresis window.
//
//apcvet:noalloc
func (g *GPMU) armEntry() {
	if !g.cfg.EnablePC6 || g.state != PC0 || g.flowActive || g.hystEv.Pending() {
		return
	}
	g.hystEv = g.schedule(g.cfg.Hysteresis, stepHysteresis)
}

// hysteresisDone starts the entry flow if every core is still settled
// in CC6 once the hysteresis window has passed.
//
//apcvet:noalloc
func (g *GPMU) hysteresisDone() {
	g.hystEv = sim.Event{}
	if g.allDeepAndQuiet() && g.state == PC0 && !g.flowActive {
		g.enterPC6()
	}
}

// enterPC6 runs the Fig. 2 entry flow, one firmware step per event:
//
//	PC2 → IOs to L1 + DRAM to self-refresh → clock-gate uncore, PLLs
//	off → CLM voltage to retention → PC6
//
//apcvet:noalloc
func (g *GPMU) enterPC6() {
	g.flowActive = true
	g.pendingWake = false
	g.setState(PC2)
	g.schedule(g.cfg.StepLatency, stepQuiesce)
}

// entryQuiesce sends the IOs to L1 and DRAM to self-refresh.
//
//apcvet:noalloc
func (g *GPMU) entryQuiesce() {
	// IO traffic that arrived during the step (e.g. a NIC DMA that has
	// not yet raised a core interrupt) blocks the descent: the firmware
	// unwinds and will retry when the fabric requiesces.
	if g.ioBusy() {
		g.pendingWake = true
	}
	if g.abortEntry(PC2) {
		return
	}
	// Deep device states, fired in parallel; the firmware then waits
	// for the slowest plus its own handshake.
	var maxDev sim.Duration
	for _, l := range g.links {
		l.EnterL1(nil)
		if d := l.Params().L1EntryLat; d > maxDev {
			maxDev = d
		}
	}
	for _, mc := range g.mcs {
		mc.EnterSelfRefresh(nil)
		if d := mc.Params().SREntry; d > maxDev {
			maxDev = d
		}
	}
	g.schedule(maxDev+g.cfg.StepLatency, stepGate)
}

// entryGate clock-gates most of the uncore and turns off most PLLs.
//
//apcvet:noalloc
func (g *GPMU) entryGate() {
	if g.abortEntry(PC2) {
		return
	}
	g.clm.ClockGate()
	g.clm.PLL().TurnOff()
	for _, p := range g.extraPLLs {
		p.TurnOff()
	}
	g.schedule(g.cfg.StepLatency, stepRetain)
}

// entryRetain reduces the CLM voltage to retention and waits for the
// ramp.
//
//apcvet:noalloc
func (g *GPMU) entryRetain() {
	if g.abortEntry(PC2) {
		return
	}
	g.clm.SetRet()
	g.schedule(g.clm.RampTime()+g.cfg.StepLatency, stepLand)
}

// entryDone lands the package in PC6, or unwinds it at once if a wake
// arrived during the last step.
//
//apcvet:noalloc
func (g *GPMU) entryDone() {
	if g.abortEntry(PC2) {
		return
	}
	g.flowActive = false
	g.setState(PC6)
	if g.pendingWake {
		g.wakeFromDeep()
	}
}

// ioBusy reports whether any link or memory controller has outstanding
// traffic.
//
//apcvet:noalloc
func (g *GPMU) ioBusy() bool {
	for _, l := range g.links {
		if !l.Idle() {
			return true
		}
	}
	for _, mc := range g.mcs {
		if !mc.Idle() {
			return true
		}
	}
	return false
}

// abortEntry checks for a wake that arrived mid-entry; if so it unwinds
// from the current depth.
//
//apcvet:noalloc
func (g *GPMU) abortEntry(at PkgState) bool {
	if !g.pendingWake {
		return false
	}
	g.flowActive = false
	g.setState(at)
	g.exitDeep()
	return true
}

// wakeFromDeep begins unwinding whatever deep state the GPMU is in. Safe
// to call at any time.
//
//apcvet:noalloc
func (g *GPMU) wakeFromDeep() {
	switch {
	case g.hystEv.Pending():
		g.hystEv.Cancel()
		g.hystEv = sim.Event{}
	case g.flowActive:
		g.pendingWake = true
	case g.state == PC6 || g.state == PC2:
		g.exitDeep()
	}
}

// exitDeep runs the Fig. 2 exit flow in reverse: PLLs on + ungate +
// voltage up, IOs out of L1, DRAM out of self-refresh, then PC0.
//
//apcvet:noalloc
func (g *GPMU) exitDeep() {
	if g.flowActive {
		return
	}
	g.flowActive = true
	g.pendingWake = false
	g.exitStart = g.eng.Now()

	// Branch 1: CLM voltage up, PLL relock, then ungate.
	g.clm.UnsetRet()
	g.clm.PLL().TurnOn()
	for _, p := range g.extraPLLs {
		p.TurnOn()
	}
	clmReady := g.clm.RampTime()
	if r := g.clm.PLL().RelockLatency(); r > clmReady {
		clmReady = r
	}
	// Branch 2: IOs retrain from L1; DRAM leaves self-refresh.
	var devReady sim.Duration
	for _, l := range g.links {
		l.ExitL1(nil)
		if d := l.Params().L1ExitLat; d > devReady {
			devReady = d
		}
	}
	for _, mc := range g.mcs {
		mc.ExitSelfRefresh(nil)
		if d := mc.Params().SRExit; d > devReady {
			devReady = d
		}
	}
	wait := clmReady
	if devReady > wait {
		wait = devReady
	}
	// Firmware handshakes: one message round per unwind step (mirror of
	// the four entry steps).
	wait += 4 * g.cfg.StepLatency
	g.schedule(wait, stepExit)
}

// exitDone ungates the uncore and returns the package to PC0 once every
// device has unwound.
//
//apcvet:noalloc
func (g *GPMU) exitDone() {
	if g.clm.Gated() && g.clm.PLL().Locked() {
		g.clm.ClockUngate()
	}
	g.flowActive = false
	g.pc6Latency = g.eng.Now() - g.exitStart
	g.setState(PC0)
	// Cores may have re-deepened while we unwound (timer wake with no
	// work): re-arm entry.
	if g.allDeepAndQuiet() {
		g.armEntry()
	}
}

// LastExitLatency returns the duration of the most recent deep-state
// unwind (PC6 → PC0), for the latency experiments.
func (g *GPMU) LastExitLatency() sim.Duration { return g.pc6Latency }
