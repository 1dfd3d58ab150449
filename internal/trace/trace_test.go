package trace

import (
	"math"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

func mkCores(eng *sim.Engine, n int) []*cpu.Core {
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = new(cpu.Core).Init(eng, i, cpu.DefaultParams(),
			cpu.ShallowGovernor{}, cpu.PerformancePolicy{Nominal: 2.2}, nil)
	}
	return cores
}

func TestIdleSystemFullResidency(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 4)
	tr := New(eng, cores)
	eng.Run(10 * sim.Millisecond)
	tr.Finalize()

	if f := tr.AllIdleFraction(); f != 1.0 {
		t.Fatalf("AllIdleFraction = %v on an idle system", f)
	}
	if tr.IdlePeriodCount() != 1 {
		t.Fatalf("idle periods = %d (the open one is closed by Finalize)", tr.IdlePeriodCount())
	}
}

// TestFinalizeTwice checks that a second Finalize at the same instant
// records no zero-length full-idle period.
func TestFinalizeTwice(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 4)
	tr := New(eng, cores)
	eng.Run(10 * sim.Millisecond)
	tr.Finalize()
	tr.Finalize()
	if n, h := tr.IdlePeriodCount(), tr.IdlePeriods().Count(); n != 1 || h != 1 {
		t.Fatalf("after two Finalize calls: %d idle periods, %d in the histogram, want 1 and 1", n, h)
	}
	if f := tr.AllIdleFraction(); f != 1.0 {
		t.Fatalf("AllIdleFraction = %v on an idle system", f)
	}
}

func TestSingleBusyEpisode(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 2)
	tr := New(eng, cores)
	eng.Run(sim.Millisecond)
	cores[0].Enqueue(cpu.Work{Duration: 100 * sim.Microsecond})
	eng.Run(10 * sim.Millisecond)
	tr.Finalize()

	// Two idle periods: [0, wake-complete) and [re-idle, end).
	if tr.IdlePeriodCount() != 2 {
		t.Fatalf("idle periods = %d, want 2", tr.IdlePeriodCount())
	}
	// All-idle fraction ≈ 1 - (wake 2us + 100us + idle entry 1us)/10ms.
	f := tr.AllIdleFraction()
	want := 1.0 - 103e-6/10e-3
	if math.Abs(f-want) > 0.003 {
		t.Fatalf("AllIdleFraction %v, want ~%v", f, want)
	}
}

// TestCensoringDropsShortPeriods checks what Fig. 6 reads from a tracer
// and a window together: the tracer's histogram keeps the full-idle
// periods under the SoCWatch floor, and the window's censored all-idle
// fraction drops exactly their time.
func TestCensoringDropsShortPeriods(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	eng := sys.Engine
	w := sys.OpenWindow()
	tr := New(eng, sys.Cores)
	// Alternate: 3us busy, ~5us idle (below the 10us floor), many times;
	// then one long 100ms idle tail.
	for i := 0; i < 100; i++ {
		eng.Run(eng.Now() + 5*sim.Microsecond)
		sys.Cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
		eng.Run(eng.Now() + 6*sim.Microsecond)
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	tr.Finalize()

	all, censored := w.AllIdle()
	if all != tr.AllIdleFraction() {
		t.Fatalf("window all-idle %v, tracer %v", all, tr.AllIdleFraction())
	}
	if censored >= all {
		t.Fatalf("censored %v must be < true %v when short gaps exist", censored, all)
	}
	h := tr.IdlePeriods()
	floor := cpu.SoCWatchFloor.Seconds()
	short := math.Round(h.FractionBetween(0, floor) * float64(h.Count()))
	if short < 90 {
		t.Fatalf("%v of %d idle periods under the floor, want about the 100 short gaps", short, h.Count())
	}
	el := tr.Elapsed().Seconds()
	if math.Abs(h.Sum()-all*el) > 1e-12 {
		t.Fatalf("histogram holds %vs of full-idle time, window %vs", h.Sum(), all*el)
	}
	if dropped := (all - censored) * el; dropped <= 0 || dropped >= short*floor {
		t.Fatalf("censoring dropped %vs, want the short periods' time, under %v periods × the floor", dropped, short)
	}
}

func TestIdlePeriodHistogram(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 1)
	tr := New(eng, cores)
	// Deterministic idle gaps of ~50us (within 20-200us band).
	for i := 0; i < 50; i++ {
		cores[0].Enqueue(cpu.Work{Duration: 10 * sim.Microsecond})
		eng.Run(eng.Now() + 63*sim.Microsecond) // 2 wake + 10 run + 1 entry + 50 idle
	}
	tr.Finalize()
	h := tr.IdlePeriods()
	if h.Count() == 0 {
		t.Fatal("no idle periods recorded")
	}
	frac := h.FractionBetween(20e-6, 200e-6)
	if frac < 0.9 {
		t.Fatalf("fraction of idle periods in 20-200us = %v, want ~1", frac)
	}
}

func TestActiveCoresAfterIdle(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 4)
	tr := New(eng, cores)
	eng.Run(sim.Millisecond)
	// Wake exactly one core per episode.
	for i := 0; i < 20; i++ {
		cores[0].Enqueue(cpu.Work{Duration: 20 * sim.Microsecond})
		eng.Run(eng.Now() + 500*sim.Microsecond)
	}
	tr.Finalize()
	s := tr.ActiveCoresAfterIdle()
	if s.Count() == 0 {
		t.Fatal("no samples")
	}
	if s.Mean() < 0.99 || s.Mean() > 1.5 {
		t.Fatalf("mean active-after-idle %v, want ~1 (single-core wakes)", s.Mean())
	}
}

func TestElapsed(t *testing.T) {
	eng := sim.NewEngine()
	eng.Run(5 * sim.Millisecond)
	cores := mkCores(eng, 1)
	tr := New(eng, cores)
	eng.Run(eng.Now() + 7*sim.Millisecond)
	if tr.Elapsed() != 7*sim.Millisecond {
		t.Fatalf("Elapsed = %v, want 7ms (tracer attached late)", tr.Elapsed())
	}
}

// TestRearmMatchesNew checks that a tracer re-armed with Init reports
// exactly what a fresh one attached at the same instant reports — on
// its cores rebuilt in place (which drops the tracer's registration)
// and on cores that replace them — and that re-attaching allocates
// nothing.
func TestRearmMatchesNew(t *testing.T) {
	drive := func(eng *sim.Engine, cores []*cpu.Core) {
		for i := 0; i < 20; i++ {
			cores[i%len(cores)].Enqueue(cpu.Work{Duration: sim.Duration(5+i) * sim.Microsecond})
			eng.Run(eng.Now() + sim.Duration(30+7*i)*sim.Microsecond)
		}
	}
	same := func(a, b *Tracer) bool {
		return a.AllIdleFraction() == b.AllIdleFraction() &&
			a.IdlePeriodCount() == b.IdlePeriodCount() &&
			a.IdlePeriods().Quantile(0.5) == b.IdlePeriods().Quantile(0.5) &&
			a.ActiveCoresAfterIdle().Count() == b.ActiveCoresAfterIdle().Count() &&
			a.ActiveCoresAfterIdle().Mean() == b.ActiveCoresAfterIdle().Mean() &&
			a.Elapsed() == b.Elapsed()
	}
	var perf cpu.FreqPolicy = cpu.PerformancePolicy{Nominal: 2.2}
	rebuild := func(eng *sim.Engine, cores []*cpu.Core) {
		eng.Reset()
		for i, c := range cores {
			c.Init(eng, i, cpu.DefaultParams(), cpu.ShallowGovernor{}, perf, nil)
		}
	}

	eng := sim.NewEngine()
	cores := mkCores(eng, 4)
	re := New(eng, cores)
	drive(eng, cores)
	re.Finalize()

	// The same cores rebuilt in place on a rewound engine, as a reused
	// fleet rewinds its machines: the cores' Init drops every observer,
	// so the tracer registers again.
	if n := testing.AllocsPerRun(10, func() { rebuild(eng, cores); re.Init(eng, cores) }); n != 0 {
		t.Fatalf("Init on rebuilt cores allocated %v times", n)
	}
	rebuild(eng, cores)
	eng.Run(5 * sim.Microsecond)
	re.Init(eng, cores)
	fresh := New(eng, cores)
	drive(eng, cores)
	re.Finalize()
	fresh.Finalize()
	if !same(re, fresh) || re.IdlePeriodCount() < 2 {
		t.Fatalf("re-attached tracer differs from a fresh one on rebuilt cores (%d vs %d periods)",
			re.IdlePeriodCount(), fresh.IdlePeriodCount())
	}

	// Replacement cores: the old ones never run again.
	next := mkCores(eng, 4)
	re.Init(eng, next)
	fresh = New(eng, next)
	drive(eng, next)
	re.Finalize()
	fresh.Finalize()
	if !same(re, fresh) {
		t.Fatal("re-attached tracer differs from a fresh one on replacement cores")
	}
}

// TestTransitionsCounted checks that every transition that ends a
// full-idle period is counted once: as one period in the histogram and
// as one wake probe.
func TestTransitionsCounted(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 2)
	tr := New(eng, cores)
	for i := 0; i < 10; i++ {
		cores[i%2].Enqueue(cpu.Work{Duration: 5 * sim.Microsecond})
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	tr.Finalize()
	// Ten wakes end ten periods; Finalize closes the eleventh.
	if tr.IdlePeriodCount() != 11 {
		t.Fatalf("idle periods = %d, want 11", tr.IdlePeriodCount())
	}
	if n := tr.ActiveCoresAfterIdle().Count(); n != 10 {
		t.Fatalf("wake probes = %d, want 10", n)
	}
}

// idleOracle accumulates the full-idle periods of cores from every
// transition, from the instant it attaches (a period open there is
// clipped there).
type idleOracle struct {
	eng       *sim.Engine
	start     sim.Time
	idle, n   int
	idleSince sim.Time
	periods   []sim.Duration
}

func newIdleOracle(eng *sim.Engine, cores []*cpu.Core) *idleOracle {
	o := &idleOracle{eng: eng, start: eng.Now(), n: len(cores), idleSince: eng.Now()}
	for _, c := range cores {
		if c.State().Idle() {
			o.idle++
		}
		c.OnTransition(func(old, new cpu.CState) {
			was := o.idle == o.n
			if old.Idle() && !new.Idle() {
				o.idle--
			} else if !old.Idle() && new.Idle() {
				o.idle++
			}
			switch is := o.idle == o.n; {
			case was && !is:
				o.periods = append(o.periods, o.eng.Now()-o.idleSince)
			case !was && is:
				o.idleSince = o.eng.Now()
			}
		})
	}
	return o
}

// check compares tr with the oracle at the current instant, the open
// period counted as ending now.
func (o *idleOracle) check(t *testing.T, what string, tr *Tracer) {
	t.Helper()
	ps := o.periods
	if o.idle == o.n {
		ps = append(ps[:len(ps):len(ps)], o.eng.Now()-o.idleSince)
	}
	var total sim.Duration
	var secs float64
	for _, d := range ps {
		total += d
		secs += d.Seconds()
	}
	want := float64(total) / float64(o.eng.Now()-o.start)
	if got := tr.AllIdleFraction(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: AllIdleFraction %v, oracle %v", what, got, want)
	}
	if got := tr.IdlePeriodCount(); got != uint64(len(ps)) {
		t.Errorf("%s: %d idle periods, oracle %d", what, got, len(ps))
	}
	if got := tr.IdlePeriods().Sum(); math.Abs(got-secs) > 1e-12 {
		t.Errorf("%s: histogram holds %vs, oracle %vs", what, got, secs)
	}
}

// TestResidencyMatchesTransitionOracle checks that the all-idle
// residency and the full-idle periods a tracer reports equal those
// accumulated from every transition: on cores with history before the
// tracer attached, after a second Finalize at the same instant, and on
// those cores rebuilt in place and re-armed.
func TestResidencyMatchesTransitionOracle(t *testing.T) {
	build := func(eng *sim.Engine, cores []*cpu.Core) {
		for i, c := range cores {
			var gov cpu.Governor = cpu.ShallowGovernor{}
			if i%2 == 1 {
				gov = cpu.NewMenuGovernor()
			}
			c.Init(eng, i, cpu.DefaultParams(), gov, cpu.PerformancePolicy{Nominal: 2.2}, nil)
		}
	}
	drive := func(eng *sim.Engine, cores []*cpu.Core) {
		for i := 0; i < 40; i++ {
			cores[i%len(cores)].Enqueue(cpu.Work{Duration: sim.Duration(5+i%9) * sim.Microsecond})
			gap := sim.Duration(20+11*(i%5)) * sim.Microsecond
			if i%8 == 7 {
				gap = 3 * sim.Millisecond
			}
			eng.Run(eng.Now() + gap)
		}
	}

	eng := sim.NewEngine()
	cores := make([]*cpu.Core, 4)
	for i := range cores {
		cores[i] = new(cpu.Core)
	}
	build(eng, cores)
	drive(eng, cores) // history the tracer must not count
	eng.Run(eng.Now() + 7*sim.Microsecond)
	tr := New(eng, cores)
	ref := newIdleOracle(eng, cores)
	drive(eng, cores)
	tr.Finalize()
	ref.check(t, "attached mid-run", tr)
	tr.Finalize()
	ref.check(t, "finalized twice", tr)

	eng.Reset()
	build(eng, cores)
	eng.Run(5 * sim.Microsecond)
	tr.Init(eng, cores)
	ref = newIdleOracle(eng, cores)
	drive(eng, cores)
	tr.Finalize()
	ref.check(t, "re-armed on rebuilt cores", tr)
}
