package cpu

import "agilepkgc/internal/sim"

// SoCWatchFloor is the shortest full-idle period the real tracing tool
// can observe (paper Sec. 6: "SoCwatch does not record idle periods
// shorter than 10 us").
const SoCWatchFloor = 10 * sim.Microsecond

// FullIdle accumulates the full-idle periods of a set of cores, in
// which every core sits in CC1 or deeper (the PC1A opportunity): the
// time in closed periods, and the part in periods of at least
// SoCWatchFloor. The observer of the cores' transitions feeds it: the
// GPMU, whose counters a measurement window reads, or a trace.Tracer.
type FullIdle struct {
	cores, idle     int          // cores in the set, cores idle now
	since           sim.Time     // when the last core went idle
	total, censored sim.Duration // closed periods
}

// Init starts accounting on cores at now, a period open there if every
// core is idle.
func (f *FullIdle) Init(cores []*Core, now sim.Time) {
	*f = FullIdle{cores: len(cores), since: now}
	for _, c := range cores {
		if c.State().Idle() {
			f.idle++
		}
	}
}

// Transition applies one core's change from old to new at now,
// returning the length of the period it ends, if it ends one.
//
//apcvet:noalloc
func (f *FullIdle) Transition(old, new CState, now sim.Time) (sim.Duration, bool) {
	switch {
	case old.Idle() && !new.Idle():
		d, ended := f.Split(now)
		f.idle--
		return d, ended
	case !old.Idle() && new.Idle():
		f.idle++
		f.since = now
	}
	return 0, false
}

// Split ends the open period at now and opens the next one there,
// returning the length of the period it ended; it does nothing with no
// period open. The SoCWatch floor judges each part on its own length.
//
//apcvet:noalloc
func (f *FullIdle) Split(now sim.Time) (sim.Duration, bool) {
	if f.cores == 0 || f.idle < f.cores {
		return 0, false
	}
	d := now - f.since
	f.total += d
	if d >= SoCWatchFloor {
		f.censored += d
	}
	f.since = now
	return d, true
}

// Time returns the full-idle time up to now and the part of it in
// periods of at least SoCWatchFloor, an open period counted as ending
// now.
//
//apcvet:noalloc
func (f *FullIdle) Time(now sim.Time) (total, censored sim.Duration) {
	g := *f
	g.Split(now)
	return g.total, g.censored
}
