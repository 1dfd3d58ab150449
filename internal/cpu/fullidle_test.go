package cpu

import (
	"testing"

	"agilepkgc/internal/sim"
)

// TestFullIdleCensoring drives one core through idle gaps under the
// SoCWatch floor and one long tail, and checks the totals against the
// periods Transition reports: every period counts toward the total,
// only those of at least the floor toward the censored total, and the
// open one counts up to the read.
func TestFullIdleCensoring(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var f FullIdle
	f.Init([]*Core{c}, eng.Now())
	var total, censored sim.Duration
	short := 0
	c.OnTransition(func(old, new CState) {
		if d, ok := f.Transition(old, new, eng.Now()); ok {
			total += d
			if d >= SoCWatchFloor {
				censored += d
			} else {
				short++
			}
		}
	})
	for i := 0; i < 100; i++ {
		eng.Run(eng.Now() + 5*sim.Microsecond)
		c.Enqueue(Work{Duration: 3 * sim.Microsecond})
		eng.Run(eng.Now() + 6*sim.Microsecond)
	}
	tail := eng.Now()
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if short == 0 {
		t.Fatal("no period fell under the floor")
	}
	open := eng.Now() - tail // the last job went idle as the tail began
	gotT, gotC := f.Time(eng.Now())
	if gotT != total+open || gotC != censored+open {
		t.Fatalf("Time = (%v, %v), want (%v, %v)", gotT, gotC, total+open, censored+open)
	}
	if again, _ := f.Time(eng.Now()); again != gotT {
		t.Fatalf("a second Time read %v, the first %v", again, gotT)
	}
}

// TestFullIdleSplit checks that Split judges each part of a period on
// its own length: a long period split just before it ends leaves a
// short part the censored total drops.
func TestFullIdleSplit(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var f FullIdle
	f.Init([]*Core{c}, eng.Now())
	c.OnTransition(func(old, new CState) { f.Transition(old, new, eng.Now()) })
	eng.Run(50 * sim.Microsecond)
	if d, ok := f.Split(eng.Now()); !ok || d != 50*sim.Microsecond {
		t.Fatalf("Split = (%v, %v), want (50us, true)", d, ok)
	}
	c.Enqueue(Work{Duration: 10 * sim.Microsecond}) // the wake ends the period 2us on
	eng.Run(eng.Now() + 5*sim.Microsecond)
	total, censored := f.Time(eng.Now())
	if total != 52*sim.Microsecond || censored != 50*sim.Microsecond {
		t.Fatalf("Time = (%v, %v), want (52us, 50us)", total, censored)
	}
	if _, ok := f.Split(eng.Now()); ok {
		t.Fatal("Split with a core busy reported a period")
	}
}

// TestSinceMark checks that SinceMark reads each state's residency
// since the last Mark, and since the build before any.
func TestSinceMark(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	eng.Run(7 * sim.Microsecond)
	if c.SinceMark(CC1) != 7*sim.Microsecond {
		t.Fatalf("unmarked SinceMark(CC1) = %v, want 7us", c.SinceMark(CC1))
	}
	var marked [NumCStates]sim.Duration
	for s := range marked {
		marked[s] = c.Residency(CState(s))
	}
	c.Mark()
	c.Enqueue(Work{Duration: 10 * sim.Microsecond})
	eng.Run(eng.Now() + 20*sim.Microsecond)
	for s := CC0; s <= CC6; s++ {
		if got, want := c.SinceMark(s), c.Residency(s)-marked[s]; got != want {
			t.Errorf("SinceMark(%v) = %v, want %v", s, got, want)
		}
	}
	if c.SinceMark(CC0) != 11*sim.Microsecond {
		t.Errorf("SinceMark(CC0) = %v, want 11us (10us of work and the 1us idle entry)", c.SinceMark(CC0))
	}
}
