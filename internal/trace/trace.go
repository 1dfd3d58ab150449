// Package trace is the event-level view of the evaluation's full-idle
// periods, the PC1A opportunity: a SoCWatch-like tracer that records
// the length of every period in which all cores are idle at once
// (paper Fig. 6(c)) and probes how many cores are active just after
// each one ends (the input of the paper's Sec. 6 performance model).
//
// Counters are the devices' own and their differences a measurement
// window's: soc.Window reports core residency and the all-idle
// fractions, with the SoCWatch floor (cpu.SoCWatchFloor) applied, from
// the cores' residency counters and the GPMU's full-idle counters. A
// tracer is attached only where a figure needs the periods themselves.
package trace

import (
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// wakeProbe is how long after a full-idle period ends the tracer
// counts the active cores.
const wakeProbe = 2 * sim.Microsecond

// Tracer observes a set of cores.
type Tracer struct {
	eng   *sim.Engine
	cores []*cpu.Core
	start sim.Time

	// idle accumulates the full-idle periods; idlePeriods holds their
	// lengths in seconds, one sample per period.
	idle        cpu.FullIdle
	idlePeriods *stats.Histogram
	finalized   bool

	// Distribution of the number of cores active shortly after each
	// full-idle period ends (paper Sec. 6, used by the performance
	// model).
	activeAfter stats.Summary
	// hook is the transition callback every core calls, bound once.
	hook func(old, new cpu.CState)
}

// New attaches a tracer to the cores. Call it before driving load so
// that initial states are observed correctly.
func New(eng *sim.Engine, cores []*cpu.Core) *Tracer {
	return new(Tracer).Init(eng, cores)
}

// Init attaches t to cores at the current instant, exactly as
// New(eng, cores) would, and returns t. Building in place lets a sweep
// keep one tracer, and re-attaching one allocates nothing: it keeps its
// histogram's storage and its callback. The tracer registers with every
// core, so cores it observed before must have been rebuilt since (a
// machine rewound between sweep points drops its observers) or never
// change state again: a tracer cannot unsubscribe.
func (t *Tracer) Init(eng *sim.Engine, cores []*cpu.Core) *Tracer {
	h, hook := t.idlePeriods, t.hook
	if h == nil {
		h = stats.NewDurationHistogram()
	}
	h.Reset()
	*t = Tracer{eng: eng, cores: cores, start: eng.Now(), idlePeriods: h, hook: hook}
	if t.hook == nil {
		t.hook = t.coreTransition
	}
	t.idle.Init(cores, t.start)
	for _, c := range cores {
		c.OnTransition(t.hook)
	}
	return t
}

// coreTransition records a full-idle period as it ends.
func (t *Tracer) coreTransition(old, new cpu.CState) {
	if d, ok := t.idle.Transition(old, new, t.eng.Now()); ok {
		t.idlePeriods.AddDuration(d)
		// Probe how many cores are active shortly after the wake.
		t.eng.Schedule(wakeProbe, (*probeTimer)(t))
	}
}

// Note on wake timing: core InCC1 wires drop at wake *start*, but
// cpu.Core transitions its state when the exit completes. The tracer,
// the GPMU's full-idle counters and the cores' residency counters use
// the state-transition view, which matches hardware residency
// counters: the exit latency is attributed to the idle state being
// left.

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

// Finalize ends the traced span at the current time, recording a
// full-idle period still open as one that ends now. Call it once after
// the run; accessors below assume it has been called. Later calls do
// nothing.
func (t *Tracer) Finalize() {
	if t.finalized {
		return
	}
	t.finalized = true
	if d, ok := t.idle.Split(t.eng.Now()); ok {
		t.idlePeriods.AddDuration(d)
	}
}

// Elapsed returns the traced wall time.
func (t *Tracer) Elapsed() sim.Duration { return t.eng.Now() - t.start }

// AllIdleFraction returns the true fraction of time all cores were idle
// simultaneously — the physical PC1A opportunity.
func (t *Tracer) AllIdleFraction() float64 {
	el := t.Elapsed()
	if el == 0 {
		return 0
	}
	total, _ := t.idle.Time(t.eng.Now())
	return float64(total) / float64(el)
}

// IdlePeriods returns the histogram of full-idle period lengths in
// seconds (Fig. 6(c)).
func (t *Tracer) IdlePeriods() *stats.Histogram { return t.idlePeriods }

// IdlePeriodCount returns the number of completed full-idle periods —
// each one is a PC1A entry/exit pair in the projected system.
func (t *Tracer) IdlePeriodCount() uint64 { return t.idlePeriods.Count() }

// ActiveCoresAfterIdle returns the distribution summary of how many
// cores were active 2 µs after each full-idle period ended.
func (t *Tracer) ActiveCoresAfterIdle() *stats.Summary { return &t.activeAfter }
