package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
)

// PkgEvent is one package C-state transition.
type PkgEvent struct {
	At   sim.Time
	From pmu.PkgState
	To   pmu.PkgState
}

// PkgStateSource is anything that reports package C-state transitions —
// both the firmware GPMU and the APC APMU satisfy it.
type PkgStateSource interface {
	State() pmu.PkgState
	OnTransition(func(old, new pmu.PkgState))
}

// PkgTracer records package C-state transitions with residency
// accounting and a bounded event log (the newest events win, like a
// hardware trace buffer).
type PkgTracer struct {
	eng   *sim.Engine
	start sim.Time

	state     pmu.PkgState
	since     sim.Time
	residency [pmu.NumPkgStates]sim.Duration
	entries   [pmu.NumPkgStates]uint64
	// seen marks the states whose residency interval has closed at
	// least once (left, or open at Finalize): the rows Summary prints.
	seen [pmu.NumPkgStates]bool

	ring    []PkgEvent
	ringCap int
	dropped uint64
}

// NewPkgTracer attaches to a state source. cap bounds the retained
// event log (≥1).
func NewPkgTracer(eng *sim.Engine, src PkgStateSource, ringCap int) *PkgTracer {
	if ringCap < 1 {
		panic("trace: ring capacity must be >= 1")
	}
	t := &PkgTracer{
		eng:     eng,
		start:   eng.Now(),
		state:   src.State(),
		since:   eng.Now(),
		ringCap: ringCap,
	}
	src.OnTransition(func(old, new pmu.PkgState) { t.transition(old, new) })
	return t
}

func (t *PkgTracer) transition(old, new pmu.PkgState) {
	now := t.eng.Now()
	t.residency[old] += now - t.since
	t.seen[old] = true
	t.since = now
	t.state = new
	t.entries[new]++
	if len(t.ring) >= t.ringCap {
		// Drop the oldest half to amortize copying.
		drop := t.ringCap / 2
		if drop == 0 {
			drop = 1
		}
		t.dropped += uint64(drop)
		t.ring = append(t.ring[:0], t.ring[drop:]...)
	}
	t.ring = append(t.ring, PkgEvent{At: now, From: old, To: new})
}

// Finalize closes the open residency interval.
func (t *PkgTracer) Finalize() {
	now := t.eng.Now()
	t.residency[t.state] += now - t.since
	t.seen[t.state] = true
	t.since = now
}

// Residency returns accumulated time in state s (call Finalize first;
// 0 for a value that names no state).
func (t *PkgTracer) Residency(s pmu.PkgState) sim.Duration {
	if uint(s) >= uint(pmu.NumPkgStates) {
		return 0
	}
	return t.residency[s]
}

// ResidencyFraction returns the state's share of traced time.
func (t *PkgTracer) ResidencyFraction(s pmu.PkgState) float64 {
	el := t.eng.Now() - t.start
	if el == 0 {
		return 0
	}
	return float64(t.Residency(s)) / float64(el)
}

// Entries returns the number of entries into state s (0 for a value
// that names no state).
func (t *PkgTracer) Entries(s pmu.PkgState) uint64 {
	if uint(s) >= uint(pmu.NumPkgStates) {
		return 0
	}
	return t.entries[s]
}

// Events returns the retained transition log (oldest first).
func (t *PkgTracer) Events() []PkgEvent { return t.ring }

// Dropped returns how many events were evicted from the ring.
func (t *PkgTracer) Dropped() uint64 { return t.dropped }

// Summary renders residency fractions sorted by share.
func (t *PkgTracer) Summary() string {
	type row struct {
		s pmu.PkgState
		f float64
	}
	var rows []row
	for s, seen := range t.seen {
		if seen {
			rows = append(rows, row{pmu.PkgState(s), t.ResidencyFraction(pmu.PkgState(s))})
		}
	}
	// Tie-break equal shares by state (two states at 0.00% are common).
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].f != rows[j].f {
			return rows[i].f > rows[j].f
		}
		return rows[i].s < rows[j].s
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s=%.2f%% ", r.s, r.f*100)
	}
	return strings.TrimSpace(b.String())
}

// WriteCSV emits the event log as CSV (time_ns,from,to) for external
// plotting.
func (t *PkgTracer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_ns,from,to"); err != nil {
		return err
	}
	for _, ev := range t.ring {
		if _, err := fmt.Fprintf(w, "%d,%s,%s\n", int64(ev.At), ev.From, ev.To); err != nil {
			return err
		}
	}
	return nil
}

// WriteIdlePeriodsCSV emits the core tracer's idle-period summary
// quantiles as CSV — the data behind paper Fig. 6(c).
func (t *Tracer) WriteIdlePeriodsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "quantile,idle_period_seconds"); err != nil {
		return err
	}
	h := t.IdlePeriods()
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		if _, err := fmt.Fprintf(w, "%g,%g\n", q, h.Quantile(q)); err != nil {
			return err
		}
	}
	return nil
}
