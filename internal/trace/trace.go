// Package trace is the measurement layer of the evaluation: a
// SoCWatch-like C-state tracer that reports per-core residencies over
// the traced span and records full-system-idle periods (the PC1A
// opportunity) — including the 10 µs sampling floor of the real
// SoCWatch tool, which the paper notes makes its reported PC1A
// opportunity an *under*-estimate (Sec. 6).
//
// The tracer keeps no residency count of its own: like SoCWatch reading
// the hardware counters, it samples each cpu.Core's residency counters
// when it attaches and at Finalize. Package C-state residency is the
// PMUs' own (pmu.GPMU.Residency, core.APMU.Residency).
package trace

import (
	"slices"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// SoCWatchFloor is the shortest idle period the real tracing tool can
// observe (paper Sec. 6: "SoCwatch does not record idle periods shorter
// than 10 us").
const SoCWatchFloor = 10 * sim.Microsecond

// Tracer observes a set of cores.
type Tracer struct {
	eng   *sim.Engine
	cores []*cpu.Core

	start sim.Time

	// Per-core residency: each core's own counters read when the tracer
	// attaches (coreBase) and the traced span between that and Finalize
	// (coreRes).
	coreBase   [][cpu.NumCStates]sim.Duration
	coreRes    [][cpu.NumCStates]sim.Duration
	transCount uint64

	// Full-idle (all cores in CC1 or deeper) tracking.
	idleCores    int
	allIdleSince sim.Time
	inAllIdle    bool

	idlePeriods   *stats.Histogram // seconds
	trueIdle      sim.Duration
	censoredIdle  sim.Duration // only periods ≥ SoCWatchFloor
	idleCount     uint64
	censoredCount uint64

	// Distribution of the number of cores active shortly after each
	// full-idle period ends (paper Sec. 6, used by the performance
	// model).
	activeAfter stats.Summary
	wakeProbe   sim.Duration
	// hook is the transition callback every core calls, bound once and
	// kept across Rearm; epochs[i] is the Epoch of cores[i] that hook
	// was registered at.
	hook   func(old, new cpu.CState)
	epochs []uint64
}

// New attaches a tracer to the cores. Call it before driving load so
// that initial states are observed correctly.
func New(eng *sim.Engine, cores []*cpu.Core) *Tracer {
	t := &Tracer{
		eng:         eng,
		idlePeriods: stats.NewDurationHistogram(),
		wakeProbe:   2 * sim.Microsecond,
	}
	t.hook = t.coreTransition
	t.attach(nil, cores)
	return t
}

// Rearm restarts the tracer at the current instant on cores, exactly
// as New(eng, cores) would, but reusing its storage and its callback,
// so re-arming allocates nothing once the tracer has seen as many
// cores. cores may be the cores the tracer already observes,
// those cores rebuilt in place (a fleet rewinds its machines between
// sweep points, and a rebuilt core drops its observers), or cores that
// replace them. The tracer registers again on every core whose
// registration is gone: a new core, or one whose Epoch moved. It
// cannot unsubscribe, so replaced cores must not change state again. A
// wake probe still pending from before the re-arm lands in the new
// interval's ActiveCoresAfterIdle.
func (t *Tracer) Rearm(cores []*cpu.Core) {
	old := t.cores
	t.idlePeriods.Reset()
	*t = Tracer{
		eng:         t.eng,
		idlePeriods: t.idlePeriods,
		wakeProbe:   t.wakeProbe,
		hook:        t.hook,
		epochs:      t.epochs,
		coreBase:    t.coreBase,
		coreRes:     t.coreRes,
	}
	t.attach(old, cores)
}

// attach starts accounting on cores at the current instant. It
// registers with each core not already observed through old at its
// current epoch.
func (t *Tracer) attach(old, cores []*cpu.Core) {
	n := len(cores)
	t.cores = cores
	t.start = t.eng.Now()
	// Zeroed at length n, reusing their storage when it is large enough.
	t.coreBase = zeroed(t.coreBase, n)
	t.coreRes = zeroed(t.coreRes, n)
	if n > len(t.epochs) {
		t.epochs = append(t.epochs, make([]uint64, n-len(t.epochs))...)
	}
	for i, c := range cores {
		snapshot(&t.coreBase[i], c)
		if c.State().Idle() {
			t.idleCores++
		}
		if i >= len(old) || old[i] != c || t.epochs[i] != c.Epoch() {
			c.OnTransition(t.hook)
			t.epochs[i] = c.Epoch()
		}
	}
	if t.idleCores == n && n > 0 {
		t.inAllIdle = true
		t.allIdleSince = t.start
	}
}

// zeroed returns s resliced to n zero elements, growing its storage
// only when it holds fewer than n.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// snapshot reads core c's residency counters into r.
func snapshot(r *[cpu.NumCStates]sim.Duration, c *cpu.Core) {
	for s := range r {
		r[s] = c.Residency(cpu.CState(s))
	}
}

// coreTransition tracks the full-idle periods: the cores' own counters
// keep their residencies.
func (t *Tracer) coreTransition(old, new cpu.CState) {
	now := t.eng.Now()
	t.transCount++

	wasAll := t.idleCores == len(t.cores)
	if old.Idle() && !new.Idle() {
		t.idleCores--
	} else if !old.Idle() && new.Idle() {
		t.idleCores++
	}
	isAll := t.idleCores == len(t.cores)

	switch {
	case wasAll && !isAll:
		t.endAllIdle(now)
	case !wasAll && isAll:
		t.inAllIdle = true
		t.allIdleSince = now
	}
}

// Note on wake timing: core InCC1 wires drop at wake *start*, but
// cpu.Core transitions its state when the exit completes. The tracer and
// the core's residency counters use the state-transition view, which
// matches hardware residency counters: the exit latency is attributed
// to the idle state being left.

func (t *Tracer) endAllIdle(now sim.Time) {
	if !t.inAllIdle {
		return
	}
	t.inAllIdle = false
	d := now - t.allIdleSince
	t.idleCount++
	t.trueIdle += d
	t.idlePeriods.Add(d.Seconds())
	if d >= SoCWatchFloor {
		t.censoredIdle += d
		t.censoredCount++
	}
	// Probe how many cores are active shortly after the wake.
	t.eng.Schedule(t.wakeProbe, (*probeTimer)(t))
}

// probeTimer is the wake probe's event: the tracer seen as a
// sim.Handler.
type probeTimer Tracer

// Fire records how many cores are active one wake probe after a
// full-idle period ended.
//
//apcvet:noalloc
func (p *probeTimer) Fire() {
	t := (*Tracer)(p)
	active := 0
	for _, c := range t.cores {
		if !c.InCC1().Level() {
			active++
		}
	}
	if active == 0 {
		active = 1 // the waking core already went back to sleep
	}
	t.activeAfter.Add(float64(active))
}

// Finalize closes open accounting intervals at the current time: it
// samples the cores' residency counters again and keeps what accrued
// since the tracer attached. Call it once after the run; accessors below
// assume it has been called. A second call at the same instant leaves
// the residencies unchanged.
func (t *Tracer) Finalize() {
	now := t.eng.Now()
	for i, c := range t.cores {
		snapshot(&t.coreRes[i], c)
		for s := range t.coreRes[i] {
			t.coreRes[i][s] -= t.coreBase[i][s]
		}
	}
	if t.inAllIdle {
		d := now - t.allIdleSince
		t.trueIdle += d
		t.idleCount++
		t.idlePeriods.Add(d.Seconds())
		if d >= SoCWatchFloor {
			t.censoredIdle += d
			t.censoredCount++
		}
		t.allIdleSince = now
	}
}

// Elapsed returns the traced wall time.
func (t *Tracer) Elapsed() sim.Duration { return t.eng.Now() - t.start }

// CoreResidency returns the fraction of time core i spent in state s
// (0 for a value that names no state).
func (t *Tracer) CoreResidency(i int, s cpu.CState) float64 {
	el := t.Elapsed()
	if el == 0 || uint(s) >= uint(cpu.NumCStates) {
		return 0
	}
	return float64(t.coreRes[i][s]) / float64(el)
}

// MeanResidency returns the average across cores of the per-core
// residency in state s — paper Fig. 6(a)'s metric.
func (t *Tracer) MeanResidency(s cpu.CState) float64 {
	if len(t.cores) == 0 {
		return 0
	}
	var sum float64
	for i := range t.cores {
		sum += t.CoreResidency(i, s)
	}
	return sum / float64(len(t.cores))
}

// AllIdleFraction returns the true fraction of time all cores were idle
// simultaneously — the physical PC1A opportunity.
func (t *Tracer) AllIdleFraction() float64 {
	el := t.Elapsed()
	if el == 0 {
		return 0
	}
	return float64(t.trueIdle) / float64(el)
}

// CensoredAllIdleFraction applies the SoCWatch 10 µs floor — the
// opportunity as the paper's methodology would measure it (Fig. 6(b)).
func (t *Tracer) CensoredAllIdleFraction() float64 {
	el := t.Elapsed()
	if el == 0 {
		return 0
	}
	return float64(t.censoredIdle) / float64(el)
}

// IdlePeriods returns the histogram of full-idle period lengths in
// seconds (Fig. 6(c)).
func (t *Tracer) IdlePeriods() *stats.Histogram { return t.idlePeriods }

// IdlePeriodCount returns the number of completed full-idle periods —
// each one is a PC1A entry/exit pair in the projected system.
func (t *Tracer) IdlePeriodCount() uint64 { return t.idleCount }

// CensoredIdlePeriodCount returns periods the SoCWatch floor would see.
func (t *Tracer) CensoredIdlePeriodCount() uint64 { return t.censoredCount }

// Transitions returns the total number of core C-state transitions.
func (t *Tracer) Transitions() uint64 { return t.transCount }

// ActiveCoresAfterIdle returns the distribution summary of how many
// cores were active 2 µs after each full-idle period ended.
func (t *Tracer) ActiveCoresAfterIdle() *stats.Summary { return &t.activeAfter }
