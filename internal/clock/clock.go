// Package clock models the SoC clock distribution: all-digital
// phase-locked loops (ADPLLs) with lock/re-lock latency and per-domain
// clock-tree gating.
//
// The fourth APC technique (paper Sec. 1, 4.3) is precisely about this
// package: PC6 turns PLLs off and pays a multi-microsecond re-lock on
// exit, while PC1A keeps every PLL locked (at ~7 mW per ADPLL) and only
// gates clock trees, which takes 1–2 cycles.
package clock

import (
	"fmt"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

// Electrical constants from the paper and its references.
const (
	// ADPLLPowerWatts is the per-PLL power of a modern all-digital PLL
	// (paper Sec. 5.4, citing [25]): 7 mW, roughly constant across
	// voltage/frequency.
	ADPLLPowerWatts = 0.007

	// DefaultRelockLatency is the time to re-lock a powered-off PLL
	// (paper: "a few microseconds").
	DefaultRelockLatency = 3 * sim.Microsecond
)

// PLLState enumerates PLL operating states.
type PLLState int

const (
	// PLLOff: powered down, no output clock.
	PLLOff PLLState = iota
	// PLLLocking: powering up, output not yet usable.
	PLLLocking
	// PLLLocked: stable output clock.
	PLLLocked
)

// String returns the state name.
func (s PLLState) String() string {
	switch s {
	case PLLOff:
		return "off"
	case PLLLocking:
		return "locking"
	case PLLLocked:
		return "locked"
	default:
		return fmt.Sprintf("PLLState(%d)", int(s))
	}
}

// PLL is an all-digital phase-locked loop.
type PLL struct {
	eng    *sim.Engine
	name   sim.Name
	state  PLLState
	relock sim.Duration
	ch     *power.Channel

	lockEv   sim.Event // pending lock, fired as a lockTimer
	onLocked []func()
}

// lockTimer is a PLL's lock event: the PLL itself, seen as a
// sim.Handler.
type lockTimer PLL

// Fire completes a TurnOn.
//
//apcvet:noalloc
func (t *lockTimer) Fire() { (*PLL)(t).locked() }

// Init builds a locked PLL in place (systems boot with clocks running),
// sets its power channel's draw, and returns p. ch may be nil for tests
// that do not account power. Building in place lets a machine allocate
// its PLLs as one slab; rebuilding one drops its lock callbacks but
// keeps their storage.
func (p *PLL) Init(eng *sim.Engine, name sim.Name, relock sim.Duration, ch *power.Channel) *PLL {
	clear(p.onLocked)
	*p = PLL{eng: eng, name: name, state: PLLLocked, relock: relock, ch: ch, onLocked: p.onLocked[:0]}
	if ch != nil {
		ch.Set(ADPLLPowerWatts)
	}
	return p
}

// Name returns the PLL name.
func (p *PLL) Name() string { return p.name.String() }

// State returns the current state.
func (p *PLL) State() PLLState { return p.state }

// Locked reports whether the output clock is usable.
//
//apcvet:noalloc
func (p *PLL) Locked() bool { return p.state == PLLLocked }

// RelockLatency returns the configured power-on lock time.
//
//apcvet:noalloc
func (p *PLL) RelockLatency() sim.Duration { return p.relock }

// OnLocked registers a callback fired every time the PLL reaches lock.
func (p *PLL) OnLocked(fn func()) { p.onLocked = append(p.onLocked, fn) }

// TurnOff powers the PLL down immediately. Its clock consumers must have
// been gated first; this model does not enforce that ordering, the PMU
// flows do.
//
//apcvet:noalloc
func (p *PLL) TurnOff() {
	if p.state == PLLOff {
		return
	}
	p.lockEv.Cancel()
	p.lockEv = sim.Event{}
	p.state = PLLOff
	if p.ch != nil {
		p.ch.Set(0)
	}
}

// TurnOn begins powering up; the PLL reaches lock after its re-lock
// latency. Turning on a locking or locked PLL is a no-op.
//
//apcvet:noalloc
func (p *PLL) TurnOn() {
	if p.state != PLLOff {
		return
	}
	p.state = PLLLocking
	if p.ch != nil {
		p.ch.Set(ADPLLPowerWatts)
	}
	p.lockEv = p.eng.Schedule(p.relock, (*lockTimer)(p))
}

// locked completes a TurnOn.
//
//apcvet:noalloc
func (p *PLL) locked() {
	p.lockEv = sim.Event{}
	p.state = PLLLocked
	for _, fn := range p.onLocked {
		fn()
	}
}

// Tree is a clock distribution tree for one domain. Gating stops the
// clock at the root (dynamic power drops in its consumers) without
// touching the PLL. Gate/ungate completes within 1–2 cycles of the
// controlling PMU; that latency is charged by the caller (the PMU FSM),
// because it is the PMU's cycle, not the tree's.
type Tree struct {
	name  string
	pll   *PLL
	gated bool
}

// Init builds an ungated tree fed by pll in place, and returns t.
func (t *Tree) Init(name string, pll *PLL) *Tree {
	*t = Tree{name: name, pll: pll}
	return t
}

// Name returns the tree name.
func (t *Tree) Name() string { return t.name }

// Gate stops the clock. Idempotent.
func (t *Tree) Gate() { t.gated = true }

// Ungate restarts the clock. Ungating with an unlocked PLL panics: the
// hardware would glitch, and a PMU flow that does this is buggy.
func (t *Tree) Ungate() {
	if !t.pll.Locked() {
		panic(fmt.Sprintf("clock: ungating %s with PLL %s in state %s", t.name, t.pll.Name(), t.pll.State()))
	}
	t.gated = false
}

// Gated reports whether the tree is gated.
func (t *Tree) Gated() bool { return t.gated }

// Running reports whether consumers receive a clock: PLL locked and tree
// ungated.
func (t *Tree) Running() bool { return !t.gated && t.pll.Locked() }
