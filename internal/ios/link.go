// Package ios models the high-speed IO interfaces of the server SoC —
// PCIe, DMI, and UPI links — including the link power states (L-states)
// their Link Training and Status State Machines (LTSSMs) manage:
//
//	L0   active: full bandwidth, minimum latency
//	L0s  standby: lanes asleep, PLL and reference clock on, exit < 64 ns
//	L0p  partial width (UPI): half the lanes awake, exit ≈ 10 ns
//	L1   power-off: PLL off, link retrain on exit, exit in microseconds
//	NDA  no device attached (deeper than L1, not modeled dynamically)
//
// The package implements the paper's IOSM interface (Sec. 4.2.1, 5.1):
// an AllowL0s control input that overrides the
// active-state-link-PM-control register, an InL0s status output driven by
// the LTSSM, autonomous L0s entry after an idle window equal to a quarter
// of the exit latency (L0S_ENTRY_LAT = 1), and wake events on traffic
// arrival.
package ios

import (
	"fmt"

	"agilepkgc/internal/power"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
)

// LState enumerates link power states.
type LState int

const (
	// L0 is the active state.
	L0 LState = iota
	// L0sEntry: idle conditions met, lanes draining before standby.
	L0sEntry
	// L0s: standby (or L0p partial-width for UPI).
	L0s
	// L0sExit: waking, lanes retraining to L0.
	L0sExit
	// L1: link powered off; retraining required.
	L1
	// L1Exit: waking from L1.
	L1Exit
)

// String names the state.
func (s LState) String() string {
	switch s {
	case L0:
		return "L0"
	case L0sEntry:
		return "L0s-entry"
	case L0s:
		return "L0s"
	case L0sExit:
		return "L0s-exit"
	case L1:
		return "L1"
	case L1Exit:
		return "L1-exit"
	default:
		return fmt.Sprintf("LState(%d)", int(s))
	}
}

// Kind is the link flavor; it determines the standby state used and the
// associated latencies.
type Kind int

const (
	// PCIe uses L0s (exit < 64 ns).
	PCIe Kind = iota
	// DMI is the chipset link; electrically PCIe, uses L0s.
	DMI
	// UPI is the socket interconnect; it has no L0s and uses L0p
	// (partial width, exit ≈ 10 ns) instead — paper footnote 3.
	UPI
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PCIe:
		return "PCIe"
	case DMI:
		return "DMI"
	case UPI:
		return "UPI"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params collects a link's timing and power parameters.
type Params struct {
	Kind Kind

	// StandbyExit is the L0s (or L0p) exit latency.
	StandbyExit sim.Duration
	// StandbyEntry is the idle window before autonomous standby entry;
	// the paper programs L0S_ENTRY_LAT so this is StandbyExit/4.
	StandbyEntry sim.Duration
	// L1Exit is the L1 exit (retrain) latency.
	L1ExitLat sim.Duration
	// L1Entry is the time to drain and power off into L1.
	L1EntryLat sim.Duration

	// ActiveWatts, StandbyWatts and L1Watts are the controller+PHY power
	// in L0, L0s/L0p, and L1.
	ActiveWatts  float64
	StandbyWatts float64
	L1Watts      float64
}

// DefaultParams returns the paper-calibrated parameters for a link kind.
// activeWatts scales the whole power ladder; standby is 70% and L1 35%
// of active, which makes the six-link SoC total 10 W / 7 W / 3.5 W as
// derived in DESIGN.md from the paper's Sec. 5.4 measurements.
func DefaultParams(k Kind, activeWatts float64) Params {
	p := Params{
		Kind:         k,
		ActiveWatts:  activeWatts,
		StandbyWatts: activeWatts * 0.70,
		L1Watts:      activeWatts * 0.35,
		L1ExitLat:    5 * sim.Microsecond,
		L1EntryLat:   2 * sim.Microsecond,
	}
	switch k {
	case UPI:
		p.StandbyExit = 10 * sim.Nanosecond // L0p
		p.StandbyEntry = 3 * sim.Nanosecond
	default:
		p.StandbyExit = 64 * sim.Nanosecond // L0s
		p.StandbyEntry = 16 * sim.Nanosecond
	}
	return p
}

// Link is one high-speed IO interface: controller + PHY + LTSSM.
type Link struct {
	eng    *sim.Engine
	name   sim.Name
	params Params

	state       LState
	outstanding int // in-flight transactions

	// allowL0s mirrors the AllowL0s control wire (paper Fig. 3, light
	// blue): the APMU sets it only when all cores are idle, because
	// datacenter configs otherwise disable L0s entirely.
	allowL0s signal.Signal
	// inL0s is the InL0s status wire (orange): high while the LTSSM is
	// in L0s or deeper, low in L0 or while exiting.
	inL0s signal.Signal

	pending sim.Event // entry/exit completion event
	ch      *power.Channel

	// The L1 flow's waiters: l1Enter holds each pending EnterL1's done
	// in call order from l1Head (the entries share one latency, so they
	// complete in call order), and l1Exit holds the dones of the exit in
	// flight, in call order.
	l1Enter []func()
	l1Head  int
	l1Exit  []func()

	// onAllow is onAllowL0s bound to the link, once: AllowL0s's
	// subscriber.
	onAllow func(bool)

	// Counters for experiments.
	standbyEntries uint64
	wakes          uint64
}

// A link's events are the link itself seen as one sim.Handler per
// timer: the L0s entry and exit, the L1 entry and the L1 exit. An L1
// entry can be pending alongside the L1 exit, so each timer has its own
// type, and scheduling one allocates nothing.
type (
	standbyEntryTimer Link
	standbyExitTimer  Link
	l1EntryTimer      Link
	l1ExitTimer       Link
)

// Fire completes the autonomous L0s (L0p) entry.
//
//apcvet:noalloc
func (t *standbyEntryTimer) Fire() {
	l := (*Link)(t)
	l.pending = sim.Event{}
	l.state = L0s
	l.standbyEntries++
	l.setPower(l.params.StandbyWatts)
	l.inL0s.Set()
}

// Fire completes the L0s (L0p) exit.
//
//apcvet:noalloc
func (t *standbyExitTimer) Fire() {
	l := (*Link)(t)
	l.pending = sim.Event{}
	l.state = L0
	l.maybeArmStandby()
}

// Fire completes the oldest pending EnterL1.
//
//apcvet:noalloc
func (t *l1EntryTimer) Fire() { (*Link)(t).l1Entered() }

// Fire completes the L1 exit in flight.
//
//apcvet:noalloc
func (t *l1ExitTimer) Fire() { (*Link)(t).l1Exited() }

// Init builds the link in place, in L0, and returns l. ch may be nil
// to skip power accounting. Building in place lets a machine allocate
// its links as one slab, and rebuilding one allocates nothing: the link
// keeps its wires' and L1 waiters' storage and its bound subscriber.
func (l *Link) Init(eng *sim.Engine, name sim.Name, p Params, ch *power.Channel) *Link {
	clear(l.l1Enter)
	clear(l.l1Exit)
	*l = Link{
		eng:      eng,
		name:     name,
		params:   p,
		state:    L0,
		ch:       ch,
		allowL0s: l.allowL0s,
		inL0s:    l.inL0s,
		l1Enter:  l.l1Enter[:0],
		l1Exit:   l.l1Exit[:0],
		onAllow:  l.onAllow,
	}
	if l.onAllow == nil {
		l.onAllow = l.onAllowL0s
	}
	l.allowL0s.Init(name.With(".AllowL0s"), false)
	l.inL0s.Init(name.With(".InL0s"), false)
	if ch != nil {
		ch.Set(p.ActiveWatts)
	}
	l.allowL0s.Subscribe(l.onAllow)
	return l
}

// Name returns the link name.
func (l *Link) Name() string { return l.name.String() }

// Kind returns the link kind.
func (l *Link) Kind() Kind { return l.params.Kind }

// State returns the LTSSM state.
func (l *Link) State() LState { return l.state }

// Params returns the link's configuration.
//
//apcvet:noalloc
func (l *Link) Params() Params { return l.params }

// AllowL0s returns the control wire; the APMU (or a test) drives it.
//
//apcvet:noalloc
func (l *Link) AllowL0s() *signal.Signal { return &l.allowL0s }

// InL0s returns the status wire routed to the APMU's AND tree.
func (l *Link) InL0s() *signal.Signal { return &l.inL0s }

// Idle reports whether the link has no outstanding transactions.
//
//apcvet:noalloc
func (l *Link) Idle() bool { return l.outstanding == 0 }

// StandbyEntries returns how many times the link entered L0s/L0p.
func (l *Link) StandbyEntries() uint64 { return l.standbyEntries }

// Wakes returns how many standby wake events occurred.
func (l *Link) Wakes() uint64 { return l.wakes }

// StandbyName returns "L0s" or "L0p" according to the link kind.
func (l *Link) StandbyName() string {
	if l.params.Kind == UPI {
		return "L0p"
	}
	return "L0s"
}

//apcvet:noalloc
func (l *Link) setPower(w float64) {
	if l.ch != nil {
		l.ch.Set(w)
	}
}

// onAllowL0s reacts to the AllowL0s control wire.
func (l *Link) onAllowL0s(level bool) {
	if level {
		l.maybeArmStandby()
		return
	}
	// Deasserted: leave standby if we are in or entering it.
	switch l.state {
	case L0sEntry:
		l.pending.Cancel()
		l.pending = sim.Event{}
		l.state = L0
	case L0s:
		l.beginStandbyExit(false)
	}
}

// maybeArmStandby schedules autonomous L0s entry if conditions hold:
// AllowL0s set, link idle, currently in L0.
//
//apcvet:noalloc
func (l *Link) maybeArmStandby() {
	if l.state != L0 || !l.allowL0s.Level() || !l.Idle() {
		return
	}
	l.state = L0sEntry
	l.pending = l.eng.Schedule(l.params.StandbyEntry, (*standbyEntryTimer)(l))
}

// beginStandbyExit starts the L0s→L0 transition. The InL0s wire drops
// immediately (the paper: "the IO controller should unset the signal
// once a wakeup event is detected to allow the other system components to
// exit ... concurrently"). If traffic is true, this is a wake event.
//
//apcvet:noalloc
func (l *Link) beginStandbyExit(traffic bool) {
	l.state = L0sExit
	l.inL0s.Unset()
	l.setPower(l.params.ActiveWatts)
	if traffic {
		l.wakes++
	}
	l.pending = l.eng.Schedule(l.params.StandbyExit, (*standbyExitTimer)(l))
}

// StartTransaction marks the beginning of a bus transaction. A
// transaction arriving in standby wakes the link; data moves only once
// the link is back in L0, so EndTransaction is typically scheduled by the
// caller after the transfer time.
//
//apcvet:noalloc
func (l *Link) StartTransaction() {
	l.outstanding++
	switch l.state {
	case L0sEntry:
		// Entry aborted by traffic: back to L0 with no penalty (lanes
		// were still draining).
		l.pending.Cancel()
		l.pending = sim.Event{}
		l.state = L0
	case L0s:
		l.beginStandbyExit(true)
	case L1:
		l.beginL1Exit(true)
	}
}

// EndTransaction marks a transaction complete. When the last completes
// and standby is allowed, the LTSSM re-arms its idle timer.
//
//apcvet:noalloc
func (l *Link) EndTransaction() {
	if l.outstanding == 0 {
		panic(fmt.Sprintf("ios: EndTransaction on idle link %s", l.name)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	l.outstanding--
	if l.outstanding == 0 && l.state == L0 {
		l.maybeArmStandby()
	}
}

// ExitDelay returns the time until the link can move data, given its
// present state — used by traffic models to delay transfers during
// wakeups.
//
//apcvet:noalloc
func (l *Link) ExitDelay() sim.Duration {
	switch l.state {
	case L0s, L0sExit:
		return l.params.StandbyExit
	case L1, L1Exit:
		return l.params.L1ExitLat
	default:
		return 0
	}
}

// EnterL1 forces the link into L1 — the deep state PC6 uses (GPMU
// command, not autonomous). The transition drains for L1EntryLat first.
// Calling it on a non-idle link panics: the GPMU only runs the PC6 flow
// with the fabric quiesced.
//
//apcvet:noalloc
func (l *Link) EnterL1(done func()) {
	if !l.Idle() {
		panic(fmt.Sprintf("ios: EnterL1 on busy link %s", l.name)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	switch l.state {
	case L1:
		if done != nil {
			done()
		}
		return
	case L0sEntry:
		l.pending.Cancel()
		l.pending = sim.Event{}
	case L0s:
		// Going deeper: drop straight through; InL0s stays high (L1 is
		// "L0s or deeper").
	case L0sExit:
		l.pending.Cancel()
		l.pending = sim.Event{}
	}
	l.l1Enter = append(l.l1Enter, done)
	l.eng.Schedule(l.params.L1EntryLat, (*l1EntryTimer)(l))
}

// l1Entered completes the oldest pending EnterL1.
//
//apcvet:noalloc
func (l *Link) l1Entered() {
	done := l.l1Enter[l.l1Head]
	l.l1Enter[l.l1Head] = nil
	l.l1Head++
	if l.l1Head == len(l.l1Enter) {
		l.l1Enter, l.l1Head = l.l1Enter[:0], 0
	}
	l.state = L1
	l.setPower(l.params.L1Watts)
	l.inL0s.Set() // L1 is deeper than L0s
	if done != nil {
		done()
	}
}

// ExitL1 begins the L1→L0 retrain (GPMU command during PC6 exit).
//
//apcvet:noalloc
func (l *Link) ExitL1(done func()) {
	if l.state != L1 {
		if done != nil {
			done()
		}
		return
	}
	l.beginL1Exit(false)
	if done != nil {
		l.l1Exit = append(l.l1Exit, done)
	}
}

//apcvet:noalloc
func (l *Link) beginL1Exit(traffic bool) {
	l.state = L1Exit
	l.inL0s.Unset()
	l.setPower(l.params.ActiveWatts)
	if traffic {
		l.wakes++
	}
	l.pending = l.eng.Schedule(l.params.L1ExitLat, (*l1ExitTimer)(l))
}

// l1Exited completes the L1 exit in flight: the link is back in L0,
// and every ExitL1 waiting on it is told, in call order.
//
//apcvet:noalloc
func (l *Link) l1Exited() {
	l.pending = sim.Event{}
	l.state = L0
	n := len(l.l1Exit)
	for i := 0; i < n; i++ {
		fn := l.l1Exit[i]
		l.l1Exit[i] = nil
		fn()
	}
	l.l1Exit = append(l.l1Exit[:0], l.l1Exit[n:]...)
	l.maybeArmStandby()
}
