package soc

import (
	"math"
	"math/rand"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/trace"
)

// oracle is the arithmetic a tracer did before the window took it over,
// kept as the reference: each core's residency accumulated interval by
// interval from its transition callbacks, and the full-idle periods
// from the instant the oracle attaches, each judged against the
// SoCWatch floor on its own length (a period open at attach is clipped
// there).
type oracle struct {
	eng       *sim.Engine
	start     sim.Time
	state     []cpu.CState
	since     []sim.Time
	res       [][cpu.NumCStates]sim.Duration
	idle      int
	idleSince sim.Time
	periods   []sim.Duration // closed full-idle periods
}

func newOracle(sys *System) *oracle {
	n := len(sys.Cores)
	o := &oracle{
		eng:       sys.Engine,
		start:     sys.Engine.Now(),
		state:     make([]cpu.CState, n),
		since:     make([]sim.Time, n),
		res:       make([][cpu.NumCStates]sim.Duration, n),
		idleSince: sys.Engine.Now(),
	}
	for i, c := range sys.Cores {
		o.state[i] = c.State()
		o.since[i] = o.start
		if c.State().Idle() {
			o.idle++
		}
		c.OnTransition(func(old, new cpu.CState) {
			now := o.eng.Now()
			o.res[i][old] += now - o.since[i]
			o.since[i] = now
			o.state[i] = new
			was := o.idle == n
			if old.Idle() && !new.Idle() {
				o.idle--
			} else if !old.Idle() && new.Idle() {
				o.idle++
			}
			switch is := o.idle == n; {
			case was && !is:
				o.periods = append(o.periods, now-o.idleSince)
			case !was && is:
				o.idleSince = now
			}
		})
	}
	return o
}

// read returns, at the current instant, the mean residency of every
// state, the all-idle and censored all-idle fractions, and the number
// of full-idle periods with the open one counted.
func (o *oracle) read() (res [cpu.NumCStates]float64, all, censored float64, periods int) {
	now := o.eng.Now()
	el := float64(now - o.start)
	for s := range res {
		var sum float64
		for i := range o.state {
			r := o.res[i][s]
			if o.state[i] == cpu.CState(s) {
				r += now - o.since[i]
			}
			sum += float64(r) / el
		}
		res[s] = sum / float64(len(o.state))
	}
	ps := o.periods
	if o.idle == len(o.state) {
		ps = append(ps[:len(ps):len(ps)], now-o.idleSince)
	}
	var total, cens sim.Duration
	for _, d := range ps {
		total += d
		if d >= cpu.SoCWatchFloor {
			cens += d
		}
	}
	return res, float64(total) / el, float64(cens) / el, len(ps)
}

// load drives sys through n seeded rounds: work on random cores, with
// gaps from a few microseconds (full-idle periods under the SoCWatch
// floor) to a few milliseconds (long enough for a menu governor to
// pick CC6).
func load(sys *System, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	eng := sys.Engine
	for i := 0; i < n; i++ {
		c := sys.Cores[rng.Intn(len(sys.Cores))]
		c.Enqueue(cpu.Work{Duration: sim.Duration(1+rng.Intn(30)) * sim.Microsecond})
		gap := sim.Duration(1+rng.Intn(40)) * sim.Microsecond
		if rng.Intn(8) == 0 {
			gap = sim.Duration(100+rng.Intn(4000)) * sim.Microsecond
		}
		eng.Run(eng.Now() + gap)
	}
}

// readWindow returns what w reports, in the oracle's shape.
func readWindow(w Window) (res [cpu.NumCStates]float64, all, censored float64) {
	for s := range res {
		res[s] = w.Residency(cpu.CState(s))
	}
	all, censored = w.AllIdle()
	return res, all, censored
}

// TestWindowMatchesTracer checks that a window's mean residencies and
// all-idle fractions equal, bit for bit, what a tracer's arithmetic
// (the oracle) reports from the same instant, and that its all-idle
// fraction equals a trace.Tracer attached there. It covers a full-idle
// period that straddles the opening (clipped there, so the floor drops
// its short inside part), one still open at the read, long and short,
// on CPC1A, Cshallow and Cdeep (whose cores reach CC6) machines with
// history before the window, and a window on a machine rebuilt in
// place. Reading a window twice gives the same numbers.
func TestWindowMatchesTracer(t *testing.T) {
	for _, kind := range []ConfigKind{CPC1A, Cshallow, Cdeep} {
		for _, tail := range []sim.Duration{2 * sim.Microsecond, 300 * sim.Microsecond} {
			sys := New(DefaultConfig(kind))
			for _, build := range []string{"first build", "rebuilt"} {
				what := kind.String() + ", " + build + ", tail " + tail.String()
				if build == "rebuilt" {
					sys.Engine.Reset()
					sys.Init(DefaultConfig(kind), sys.Engine)
				}
				eng := sys.Engine
				load(sys, 1, 60)
				// Idle long enough that the period open at the opening
				// passes the floor, then wake a core just after it.
				eng.Run(eng.Now() + 5*sim.Millisecond)
				w := sys.OpenWindow()
				tr := trace.New(eng, sys.Cores)
				o := newOracle(sys)
				eng.Run(eng.Now() + 3*sim.Microsecond)
				sys.Cores[0].Enqueue(cpu.Work{Duration: 5 * sim.Microsecond})
				load(sys, 2, 120)
				// Quiesce, then end tail after one short job went idle:
				// a full-idle period is open at the read.
				eng.Run(eng.Now() + 10*sim.Millisecond)
				sys.Cores[1].Enqueue(cpu.Work{Duration: 5 * sim.Microsecond})
				for !sys.AllCoresIdle() || sys.Cores[1].State() == cpu.CC0 {
					eng.Run(eng.Now() + sim.Microsecond)
				}
				eng.Run(eng.Now() + tail)
				tr.Finalize()

				res, all, cens, periods := o.read()
				if kind != Cdeep && o.periods[0] >= cpu.SoCWatchFloor {
					t.Fatalf("%s: the period straddling the opening lasts %v inside the window, want under the floor",
						what, o.periods[0])
				}
				if kind == Cdeep && res[cpu.CC6] == 0 {
					t.Fatalf("%s: no core reached CC6, so the deep state went unchecked", what)
				}
				if all == cens {
					t.Fatalf("%s: no full-idle period fell under the floor (all %v, censored %v)", what, all, cens)
				}
				for read := 1; read <= 2; read++ {
					gr, ga, gc := readWindow(w)
					for s := range res {
						if math.Float64bits(gr[s]) != math.Float64bits(res[s]) {
							t.Errorf("%s, read %d: %v residency %v, oracle %v", what, read, cpu.CState(s), gr[s], res[s])
						}
					}
					if math.Float64bits(ga) != math.Float64bits(all) || math.Float64bits(gc) != math.Float64bits(cens) {
						t.Errorf("%s, read %d: all-idle %v censored %v, oracle %v and %v", what, read, ga, gc, all, cens)
					}
					if tra := tr.AllIdleFraction(); math.Float64bits(ga) != math.Float64bits(tra) {
						t.Errorf("%s, read %d: all-idle %v, tracer %v", what, read, ga, tra)
					}
				}
				if got := tr.IdlePeriodCount(); got != uint64(periods) {
					t.Errorf("%s: tracer saw %d full-idle periods, oracle %d", what, got, periods)
				}
			}
		}
	}
}

// TestWindowResidencySumsToOne checks that a window's mean residencies
// over the states sum to one on a machine whose cores reach CC6.
func TestWindowResidencySumsToOne(t *testing.T) {
	sys := New(DefaultConfig(Cdeep))
	load(sys, 3, 30)
	w := sys.OpenWindow()
	load(sys, 4, 80)
	sum := 0.0
	for s := cpu.CC0; s <= cpu.CC6; s++ {
		sum += w.Residency(s)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("residencies sum to %v", sum)
	}
	if w.Residency(cpu.CC0) == 0 || w.Residency(cpu.CC6) == 0 {
		t.Errorf("known states lost their accounting: CC0 %v, CC6 %v", w.Residency(cpu.CC0), w.Residency(cpu.CC6))
	}
}

// TestSupersededWindowPanics checks the one-window rule: reading a
// window after its system opened the next one, or was rebuilt, panics
// rather than reporting the newer window's numbers.
func TestSupersededWindowPanics(t *testing.T) {
	mustPanic := func(what string, read func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: reading a superseded window did not panic", what)
			}
		}()
		read()
	}
	sys := New(DefaultConfig(CPC1A))
	old := sys.OpenWindow()
	sys.Engine.Run(sim.Millisecond)
	cur := sys.OpenWindow()
	sys.Engine.Run(2 * sim.Millisecond)
	if cur.Len() != sim.Millisecond {
		t.Fatalf("current window Len = %v", cur.Len())
	}
	mustPanic("Len", func() { old.Len() })
	mustPanic("Watts", func() { old.TotalWatts() })
	mustPanic("PC1A", func() { old.PC1A() })
	mustPanic("Residency", func() { old.Residency(cpu.CC1) })
	mustPanic("AllIdle", func() { old.AllIdle() })
	sys.Engine.Reset()
	sys.Init(DefaultConfig(CPC1A), sys.Engine)
	mustPanic("after a rebuild", func() { cur.AllIdle() })
}

// TestPerStateAccountingArrays pins the fixed-array accounting: the
// window's and the APMU's accessors read 0 for a value that names no
// state, while the states that were occupied keep their counts.
func TestPerStateAccountingArrays(t *testing.T) {
	sys := New(DefaultConfig(CPC1A))
	w := sys.OpenWindow()
	sys.Engine.Run(sim.Millisecond)
	sys.Cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
	sys.Engine.Run(2 * sim.Millisecond)
	for _, s := range []pmu.PkgState{-1, pmu.PkgState(pmu.NumPkgStates), 99} {
		if sys.APMU.Residency(s) != 0 || sys.APMU.Entries(s) != 0 {
			t.Errorf("%v: non-zero APMU accounting for a value that names no state", s)
		}
	}
	for _, s := range []cpu.CState{-1, cpu.CState(cpu.NumCStates), 99} {
		if w.Residency(s) != 0 || sys.Cores[0].SinceMark(s) != 0 {
			t.Errorf("%v: non-zero residency for a value that names no state", s)
		}
	}
	if w.Residency(cpu.CC1) == 0 || sys.APMU.Entries(pmu.PC1A) != 2 {
		t.Errorf("known states lost their accounting: CC1 %v, PC1A entries %d",
			w.Residency(cpu.CC1), sys.APMU.Entries(pmu.PC1A))
	}
}
