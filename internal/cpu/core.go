// Package cpu models the CPU cores of the server SoC: core C-states
// (CC0 active, CC1/CC1E shallow idle, CC6 deep idle) with their exit
// latencies, per-state power and residency counters, the per-core
// power management agent (PMA) that exposes the InCC1 status wire, OS
// idle governors (the datacenter shallow-only policy and a
// Linux-menu-like predictive policy), and P-state/frequency policies
// (performance vs powersave).
package cpu

import (
	"fmt"

	"agilepkgc/internal/power"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
)

// CState enumerates core C-states. Higher is deeper.
type CState int

const (
	// CC0: executing instructions.
	CC0 CState = iota
	// CC1: clock-gated halt; the only idle state datacenter configs
	// leave enabled.
	CC1
	// CC1E: CC1 with reduced frequency/voltage.
	CC1E
	// CC6: power-gated; caches flushed. ~133 µs transition.
	CC6

	// NumCStates is the number of core C-states: per-state accounting
	// is an array indexed by state.
	NumCStates = int(CC6) + 1
)

// String names the state.
func (s CState) String() string {
	switch s {
	case CC0:
		return "CC0"
	case CC1:
		return "CC1"
	case CC1E:
		return "CC1E"
	case CC6:
		return "CC6"
	default:
		return fmt.Sprintf("CState(%d)", int(s))
	}
}

// Idle reports whether the state is an idle state (CC1 or deeper).
//
//apcvet:noalloc
func (s CState) Idle() bool { return s > CC0 }

// Params collects per-core timing and power parameters.
type Params struct {
	// Exit latencies (entry costs are folded into exit, as the paper
	// and Linux cpuidle tables do).
	CC1Exit  sim.Duration
	CC1EExit sim.Duration
	CC6Exit  sim.Duration

	// Per-state power at nominal frequency. CC0 power scales linearly
	// with frequency.
	CC0Watts  float64
	CC1Watts  float64
	CC1EWatts float64
	CC6Watts  float64

	// NominalGHz is the frequency work durations are expressed at.
	NominalGHz float64

	// IdleEntryDelay models the kernel idle-entry path: after the run
	// queue empties the core stays in CC0 this long (governor
	// selection, residency bookkeeping) before the C-state is entered.
	// New work during the window cancels idle entry with no exit cost.
	IdleEntryDelay sim.Duration
}

// DefaultParams returns the SKX-calibrated core parameters (DESIGN.md):
// CC6 exit 133 µs (paper Sec. 3.1), CC1 exit 2 µs, power ladder
// 5.35 / 1.25 / 0.04 W to reproduce the paper's Sec. 5.4 deltas.
func DefaultParams() Params {
	return Params{
		CC1Exit:        2 * sim.Microsecond,
		CC1EExit:       10 * sim.Microsecond,
		CC6Exit:        133 * sim.Microsecond,
		CC0Watts:       5.35,
		CC1Watts:       1.25,
		CC1EWatts:      0.90,
		CC6Watts:       0.04,
		NominalGHz:     2.2,
		IdleEntryDelay: 1 * sim.Microsecond,
	}
}

// ExitLatency returns the exit latency of a state.
//
//apcvet:noalloc
func (p Params) ExitLatency(s CState) sim.Duration {
	switch s {
	case CC1:
		return p.CC1Exit
	case CC1E:
		return p.CC1EExit
	case CC6:
		return p.CC6Exit
	default:
		return 0
	}
}

// StateWatts returns the state's power at nominal frequency.
//
//apcvet:noalloc
func (p Params) StateWatts(s CState) float64 {
	switch s {
	case CC0:
		return p.CC0Watts
	case CC1:
		return p.CC1Watts
	case CC1E:
		return p.CC1EWatts
	case CC6:
		return p.CC6Watts
	default:
		return 0
	}
}

// Governor selects the C-state for an idle episode — the OS cpuidle
// governor.
type Governor interface {
	// ChooseIdleState is called when the core's run queue empties.
	ChooseIdleState() CState
	// RecordIdle reports the length of a completed idle episode, for
	// predictive governors.
	RecordIdle(d sim.Duration)
	String() string
}

// ShallowGovernor always picks CC1 — the recommended datacenter
// configuration (Cshallow baseline): deep states disabled to protect
// tail latency.
type ShallowGovernor struct{}

// ChooseIdleState always returns CC1.
func (ShallowGovernor) ChooseIdleState() CState { return CC1 }

// RecordIdle is a no-op.
func (ShallowGovernor) RecordIdle(sim.Duration) {}

func (ShallowGovernor) String() string { return "shallow(CC1-only)" }

// MenuGovernor is a simplified Linux-menu-style predictive governor used
// by the Cdeep baseline: it predicts the next idle length with an EWMA of
// recent idle episodes and picks the deepest state whose target residency
// fits the prediction.
type MenuGovernor struct {
	// Target residencies: minimum predicted idle to justify the state.
	CC1ETarget sim.Duration
	CC6Target  sim.Duration

	ewma float64 // nanoseconds
	seen bool
}

// NewMenuGovernor returns a menu governor with SKX-like target
// residencies (Linux intel_idle: C1E 20 µs, C6 600 µs).
func NewMenuGovernor() *MenuGovernor {
	return &MenuGovernor{
		CC1ETarget: 20 * sim.Microsecond,
		CC6Target:  600 * sim.Microsecond,
	}
}

// ChooseIdleState picks from the EWMA prediction. With no history it
// starts optimistic (deep), as an idle server boots into long idleness.
func (g *MenuGovernor) ChooseIdleState() CState {
	if !g.seen {
		return CC6
	}
	pred := sim.Duration(g.ewma)
	switch {
	case pred >= g.CC6Target:
		return CC6
	case pred >= g.CC1ETarget:
		return CC1E
	default:
		return CC1
	}
}

// RecordIdle folds a completed idle episode into the EWMA.
func (g *MenuGovernor) RecordIdle(d sim.Duration) {
	const alpha = 0.3
	if !g.seen {
		g.ewma = float64(d)
		g.seen = true
		return
	}
	g.ewma = alpha*float64(d) + (1-alpha)*g.ewma
}

func (g *MenuGovernor) String() string { return "menu(predictive)" }

// FreqPolicy models the P-state governor. The paper disables DVFS but
// contrasts the `performance` governor (Cshallow: pinned at nominal) with
// `powersave` (Cdeep: frequency follows utilization).
type FreqPolicy interface {
	// GHz returns the frequency for the next work item.
	GHz() float64
	// OnBusyFraction feeds the policy the core's recent busy fraction.
	OnBusyFraction(u float64)
	String() string
}

// PerformancePolicy pins the nominal frequency.
type PerformancePolicy struct{ Nominal float64 }

// GHz returns the pinned frequency.
func (p PerformancePolicy) GHz() float64 { return p.Nominal }

// OnBusyFraction is a no-op.
func (p PerformancePolicy) OnBusyFraction(float64) {}

func (p PerformancePolicy) String() string { return fmt.Sprintf("performance(%.1fGHz)", p.Nominal) }

// PowersavePolicy scales frequency with an EWMA of the busy fraction
// between Min and Max GHz — the intel_pstate powersave shape: a lightly
// loaded server runs near minimum frequency.
type PowersavePolicy struct {
	Min, Max float64
	util     float64
}

// GHz interpolates on utilization.
func (p *PowersavePolicy) GHz() float64 { return p.Min + (p.Max-p.Min)*p.util }

// OnBusyFraction updates the utilization EWMA.
func (p *PowersavePolicy) OnBusyFraction(u float64) {
	const alpha = 0.2
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	p.util = alpha*u + (1-alpha)*p.util
}

func (p *PowersavePolicy) String() string {
	return fmt.Sprintf("powersave(%.1f-%.1fGHz)", p.Min, p.Max)
}

// Work is one unit of execution for a core.
type Work struct {
	// Duration is the service time at nominal frequency.
	Duration sim.Duration
	// OnStart fires when the core begins executing the work (after any
	// C-state exit latency).
	OnStart sim.Handler
	// OnDone fires when the work completes.
	OnDone sim.Handler
}

// Core is one CPU core.
type Core struct {
	eng      *sim.Engine
	id       int
	params   Params
	governor Governor
	freq     FreqPolicy

	state CState
	// queue is the run queue, a FIFO ring of qLen items from qHead. It
	// grows only when it is full, so its storage tracks the deepest the
	// queue has been, not how many items passed through it during a busy
	// period. It starts in queueBuf, so a core whose queue never holds
	// more than two items allocates none.
	queue    []Work
	qHead    int
	qLen     int
	queueBuf [2]Work
	// cur is the work item being executed, read back when it completes.
	cur Work

	// inIdle is the PMA's InCC1 status wire: high when the core is in
	// CC1 or deeper. It drops the moment a wake begins.
	inIdle signal.Signal

	// The core's three events are mutually exclusive (see maybeStart),
	// so each fires the core as one coreTimer, and next says which.
	idleEntry sim.Event // pending idle-entry (kernel path) event
	wakeEv    sim.Event // pending C-state exit completion
	workEv    sim.Event // pending work completion
	next      coreEvent
	// inWork is set while the core fires a work item's OnStart or
	// OnDone: work those handlers enqueue here waits in the queue for
	// the core to pick it up, rather than starting beside the item.
	inWork bool

	idleStart  sim.Time
	busyStart  sim.Time
	lastWindow sim.Time // utilization window anchor
	busyInWin  sim.Duration

	ch *power.Channel

	// onTransition holds the C-state observers: the GPMU, and a tracer
	// while one is attached.
	onTransition signal.Listeners[func(old, new CState)]

	// residency[s] is the time spent in s up to since, the instant the
	// core entered its current state (or was built); the open interval
	// from since to now belongs to state. mark holds the counters as
	// they stood at the last Mark.
	residency [NumCStates]sim.Duration
	since     sim.Time
	mark      [NumCStates]sim.Duration

	// Counters.
	wakes      [4]uint64 // indexed by the state woken from
	workDone   uint64
	interrupts uint64
}

// coreEvent names which of a core's events is pending.
type coreEvent uint8

const (
	evWake coreEvent = iota // the C-state exit completes
	evWork                  // the work item in cur completes
	evIdle                  // the kernel idle-entry path ends
)

// coreTimer is the core seen as the sim.Handler of its pending event.
type coreTimer Core

// Fire runs the core's pending event, named by next.
//
//apcvet:noalloc
func (t *coreTimer) Fire() {
	c := (*Core)(t)
	switch c.next {
	case evWake:
		c.wakeEv = sim.Event{}
		c.setState(CC0)
		c.beginWork()
	case evWork:
		w := c.cur
		c.cur = Work{}
		c.workEv = sim.Event{}
		c.workDone++
		c.noteBusy(c.eng.Now() - c.busyStart)
		if w.OnDone != nil {
			c.inWork = true
			w.OnDone.Fire()
			c.inWork = false
		}
		if c.qLen > 0 {
			c.beginWork()
			return
		}
		c.armIdleEntry()
	case evIdle:
		c.idleEntry = sim.Event{}
		c.enterIdle()
	}
}

// schedule arms the core's event ev after d.
//
//apcvet:noalloc
func (c *Core) schedule(d sim.Duration, ev coreEvent) sim.Event {
	c.next = ev
	return c.eng.Schedule(d, (*coreTimer)(c))
}

// Init builds the core in place, idling in CC1 (a freshly booted idle
// system), and returns c. ch may be nil. Building in place lets a
// machine allocate its cores as one slab, and rebuilding one allocates
// nothing: the core keeps the storage of its run queue (as deep as the
// queue has ever been), of its InCC1 subscribers and of its transition
// observers, but drops the subscribers and observers themselves.
func (c *Core) Init(eng *sim.Engine, id int, p Params, gov Governor, freq FreqPolicy, ch *power.Channel) *Core {
	*c = Core{
		eng:          eng,
		id:           id,
		params:       p,
		governor:     gov,
		freq:         freq,
		state:        CC1,
		since:        eng.Now(),
		ch:           ch,
		queue:        c.queue,
		inIdle:       c.inIdle,
		onTransition: c.onTransition,
	}
	if c.queue == nil {
		c.queue = c.queueBuf[:]
	}
	clear(c.queue)
	c.onTransition.Reset()
	c.inIdle.Init(sim.Indexed("core", id).With(".InCC1"), true)
	if ch != nil {
		ch.Set(p.CC1Watts)
	}
	return c
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// State returns the current C-state.
func (c *Core) State() CState { return c.state }

// InCC1 returns the PMA status wire (high in CC1 or deeper).
//
//apcvet:noalloc
func (c *Core) InCC1() *signal.Signal { return &c.inIdle }

// QueueLen returns the number of queued (not yet started) work items.
func (c *Core) QueueLen() int { return c.qLen }

// Busy reports whether the core is executing or waking to execute.
func (c *Core) Busy() bool { return c.state == CC0 || c.wakeEv.Pending() }

// WorkDone returns the number of completed work items.
func (c *Core) WorkDone() uint64 { return c.workDone }

// Wakes returns the number of wakes from the given state.
func (c *Core) Wakes(from CState) uint64 { return c.wakes[from] }

// Residency returns the time the core has spent in state s since it
// was built, the interval it is in now included (0 for a value that
// names no state). These are the core's C-state residency counters,
// which MSR_CORE_C1/C6_RESIDENCY expose.
//
//apcvet:noalloc
func (c *Core) Residency(s CState) sim.Duration {
	if uint(s) >= uint(NumCStates) {
		return 0
	}
	r := c.residency[s]
	if s == c.state {
		r += c.eng.Now() - c.since
	}
	return r
}

// Mark sets the core's residency mark to its counters now: a
// measurement window marks every core as it opens.
func (c *Core) Mark() {
	for s := range c.mark {
		c.mark[s] = c.Residency(CState(s))
	}
}

// SinceMark returns the time the core has spent in state s since its
// last Mark, or since it was built if it has not been marked since (0
// for a value that names no state).
//
//apcvet:noalloc
func (c *Core) SinceMark(s CState) sim.Duration {
	if uint(s) >= uint(NumCStates) {
		return 0
	}
	return c.Residency(s) - c.mark[s]
}

// Governor returns the core's idle governor.
func (c *Core) Governor() Governor { return c.governor }

// FreqPolicy returns the core's frequency policy.
func (c *Core) FreqPolicy() FreqPolicy { return c.freq }

// OnTransition registers a callback for every C-state change.
// Callbacks run in registration order, until the next Init drops them.
func (c *Core) OnTransition(fn func(old, new CState)) {
	c.onTransition.Add(fn)
}

//apcvet:noalloc
func (c *Core) setState(s CState) {
	if s == c.state {
		return
	}
	old := c.state
	now := c.eng.Now()
	c.residency[old] += now - c.since
	c.since = now
	c.state = s
	if c.ch != nil {
		w := c.params.StateWatts(s)
		if s == CC0 {
			// Dynamic power scales with frequency.
			w = c.params.CC0Watts * c.freq.GHz() / c.params.NominalGHz
		}
		c.ch.Set(w)
	}
	c.inIdle.SetLevel(s.Idle())
	n := c.onTransition.Len()
	for i := 0; i < n; i++ {
		c.onTransition.At(i)(old, s)
	}
}

// Enqueue adds work to the core's run queue, waking it if idle. This is
// the path a NIC interrupt + softirq takes to hand a request to the
// pinned application thread.
//
//apcvet:noalloc
func (c *Core) Enqueue(w Work) {
	if c.qLen == len(c.queue) {
		c.growQueue()
	}
	i := c.qHead + c.qLen
	if i >= len(c.queue) {
		i -= len(c.queue)
	}
	c.queue[i] = w
	c.qLen++
	c.maybeStart()
}

// growQueue quadruples the full run-queue ring, unrolling it to start
// at index 0. A queue that outgrows its slots is in a burst, and bursts
// run deep: growing fourfold reaches a burst's depth in few steps.
//
//apcvet:noalloc
func (c *Core) growQueue() {
	q := make([]Work, 4*len(c.queue)) //apcvet:alloc the ring grows only at a new depth high-water mark
	n := copy(q, c.queue[c.qHead:])
	copy(q[n:], c.queue[:c.qHead])
	c.queue, c.qHead = q, 0
}

// WakeInterrupt wakes the core with no associated work (timer interrupt,
// IPI). The core executes the kernel interrupt path (a short burst of
// CC0) and then re-enters idle.
func (c *Core) WakeInterrupt(kernelTime sim.Duration) {
	c.interrupts++
	c.Enqueue(Work{Duration: kernelTime})
}

// maybeStart begins waking or executing if there is work and the core is
// not already doing either.
//
//apcvet:noalloc
func (c *Core) maybeStart() {
	if c.qLen == 0 || c.inWork || c.workEv.Pending() || c.wakeEv.Pending() {
		return
	}
	// Cancel a pending idle entry: the kernel path was preempted before
	// the C-state was entered, so there is no exit cost.
	if c.idleEntry.Pending() {
		c.idleEntry.Cancel()
		c.idleEntry = sim.Event{}
	}
	if c.state.Idle() {
		// Begin C-state exit. The InCC1 wire drops immediately: the
		// PMA signals the wake as it starts, which is what lets the
		// package exit flow run concurrently with the core wake.
		from := c.state
		c.governor.RecordIdle(c.eng.Now() - c.idleStart)
		c.wakes[from]++
		c.inIdle.Unset()
		c.wakeEv = c.schedule(c.params.ExitLatency(from), evWake)
		return
	}
	// Already in CC0 (between work items or in the idle-entry window).
	c.beginWork()
}

// beginWork starts the next queued item; the core must be in CC0.
//
//apcvet:noalloc
func (c *Core) beginWork() {
	if c.state != CC0 {
		c.setState(CC0)
	}
	w := c.queue[c.qHead]
	c.queue[c.qHead] = Work{} // drop handler references
	c.qHead++
	if c.qHead == len(c.queue) {
		c.qHead = 0
	}
	c.qLen--
	c.busyStart = c.eng.Now()
	if w.OnStart != nil {
		c.inWork = true
		w.OnStart.Fire()
		c.inWork = false
	}
	// Scale duration by current frequency.
	ghz := c.freq.GHz()
	scaled := sim.Duration(float64(w.Duration) * c.params.NominalGHz / ghz)
	if c.ch != nil {
		c.ch.Set(c.params.CC0Watts * ghz / c.params.NominalGHz)
	}
	c.cur = w
	c.workEv = c.schedule(scaled, evWork)
}

// armIdleEntry schedules the kernel idle-entry path.
//
//apcvet:noalloc
func (c *Core) armIdleEntry() {
	if c.params.IdleEntryDelay == 0 {
		c.enterIdle()
		return
	}
	c.idleEntry = c.schedule(c.params.IdleEntryDelay, evIdle)
}

//
//apcvet:noalloc
func (c *Core) enterIdle() {
	if c.qLen > 0 {
		c.maybeStart()
		return
	}
	target := c.governor.ChooseIdleState()
	c.idleStart = c.eng.Now()
	c.setState(target)
}

// noteBusy updates the utilization estimate fed to the frequency policy,
// over 1 ms windows.
//
//apcvet:noalloc
func (c *Core) noteBusy(d sim.Duration) {
	c.busyInWin += d
	const window = sim.Millisecond
	if c.eng.Now()-c.lastWindow >= window {
		u := float64(c.busyInWin) / float64(c.eng.Now()-c.lastWindow)
		c.freq.OnBusyFraction(u)
		c.lastWindow = c.eng.Now()
		c.busyInWin = 0
	}
}
