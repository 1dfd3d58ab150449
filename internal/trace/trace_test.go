package trace

import (
	"math"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
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
	if f := tr.CensoredAllIdleFraction(); f != 1.0 {
		t.Fatalf("censored fraction = %v, the single long period passes the floor", f)
	}
	if r := tr.MeanResidency(cpu.CC1); r != 1.0 {
		t.Fatalf("CC1 residency = %v", r)
	}
	if tr.IdlePeriodCount() != 1 {
		t.Fatalf("idle periods = %d (the open one is closed by Finalize)", tr.IdlePeriodCount())
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
	// Core 0 spent ~100us of 10ms in CC0 (plus the 1us idle-entry
	// window): ~1%.
	r := tr.CoreResidency(0, cpu.CC0)
	if r < 0.005 || r > 0.02 {
		t.Fatalf("core0 CC0 residency %v, want ~0.01", r)
	}
	// Core 1 never woke.
	if tr.CoreResidency(1, cpu.CC1) != 1.0 {
		t.Fatalf("core1 CC1 residency %v", tr.CoreResidency(1, cpu.CC1))
	}
	// All-idle fraction ≈ 1 - (wake 2us + 100us + idle entry 1us)/10ms.
	f := tr.AllIdleFraction()
	want := 1.0 - 103e-6/10e-3
	if math.Abs(f-want) > 0.003 {
		t.Fatalf("AllIdleFraction %v, want ~%v", f, want)
	}
}

func TestCensoringDropsShortPeriods(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 1)
	tr := New(eng, cores)
	// Alternate: 3us busy, ~5us idle (below the 10us floor), many times;
	// then one long 100ms idle tail.
	for i := 0; i < 100; i++ {
		eng.Run(eng.Now() + 5*sim.Microsecond)
		cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
		eng.Run(eng.Now() + 6*sim.Microsecond)
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	tr.Finalize()

	trueF := tr.AllIdleFraction()
	censF := tr.CensoredAllIdleFraction()
	if censF >= trueF {
		t.Fatalf("censored %v must be < true %v when short gaps exist", censF, trueF)
	}
	if tr.CensoredIdlePeriodCount() >= tr.IdlePeriodCount() {
		t.Fatalf("censored count %d should be below total %d",
			tr.CensoredIdlePeriodCount(), tr.IdlePeriodCount())
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

func TestTransitionsCounted(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 2)
	tr := New(eng, cores)
	for i := 0; i < 10; i++ {
		cores[i%2].Enqueue(cpu.Work{Duration: 5 * sim.Microsecond})
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	tr.Finalize()
	// Each episode: CC1→CC0 and CC0→CC1 = 2 transitions.
	if tr.Transitions() != 20 {
		t.Fatalf("transitions = %d, want 20", tr.Transitions())
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

func TestResidencySumsToOne(t *testing.T) {
	eng := sim.NewEngine()
	cores := mkCores(eng, 3)
	tr := New(eng, cores)
	for i := 0; i < 30; i++ {
		cores[i%3].Enqueue(cpu.Work{Duration: sim.Duration(5+i) * sim.Microsecond})
		eng.Run(eng.Now() + 70*sim.Microsecond)
	}
	tr.Finalize()
	for i := range cores {
		sum := 0.0
		for _, s := range []cpu.CState{cpu.CC0, cpu.CC1, cpu.CC1E, cpu.CC6} {
			sum += tr.CoreResidency(i, s)
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Fatalf("core %d residencies sum to %v", i, sum)
		}
	}
}

// TestRearmMatchesNew checks that a re-armed tracer reports exactly
// what a fresh one attached at the same instant reports — on the cores
// it already observed, on those cores rebuilt in place (which drops the
// tracer's registration), and on cores that replace them — and that
// re-arming allocates nothing.
func TestRearmMatchesNew(t *testing.T) {
	drive := func(eng *sim.Engine, cores []*cpu.Core) {
		for i := 0; i < 20; i++ {
			cores[i%len(cores)].Enqueue(cpu.Work{Duration: sim.Duration(5+i) * sim.Microsecond})
			eng.Run(eng.Now() + sim.Duration(30+7*i)*sim.Microsecond)
		}
	}
	same := func(a, b *Tracer) bool {
		for s := cpu.CC0; s <= cpu.CC6; s++ {
			if a.MeanResidency(s) != b.MeanResidency(s) {
				return false
			}
		}
		return a.AllIdleFraction() == b.AllIdleFraction() &&
			a.CensoredAllIdleFraction() == b.CensoredAllIdleFraction() &&
			a.IdlePeriodCount() == b.IdlePeriodCount() &&
			a.Transitions() == b.Transitions() &&
			a.IdlePeriods().Count() == b.IdlePeriods().Count() &&
			a.Elapsed() == b.Elapsed()
	}

	eng := sim.NewEngine()
	cores := mkCores(eng, 4)
	re := New(eng, cores)
	drive(eng, cores)
	if n := testing.AllocsPerRun(10, func() { re.Rearm(cores) }); n != 0 {
		t.Fatalf("Rearm on the same cores allocated %v times", n)
	}
	fresh := New(eng, cores)
	drive(eng, cores)
	re.Finalize()
	fresh.Finalize()
	if !same(re, fresh) {
		t.Fatal("re-armed tracer differs from a fresh one on the same cores")
	}

	// The same cores rebuilt in place on a rewound engine, as a reused
	// fleet rewinds its machines: Init drops every observer, so the
	// tracer must register again.
	eng.Reset()
	for i, c := range cores {
		c.Init(eng, i, cpu.DefaultParams(), cpu.ShallowGovernor{}, cpu.PerformancePolicy{Nominal: 2.2}, nil)
	}
	re.Rearm(cores)
	fresh = New(eng, cores)
	drive(eng, cores)
	re.Finalize()
	fresh.Finalize()
	if !same(re, fresh) || re.Transitions() == 0 {
		t.Fatalf("re-armed tracer differs from a fresh one on rebuilt cores (%d vs %d transitions)",
			re.Transitions(), fresh.Transitions())
	}

	// Replacement cores: the old ones never run again.
	next := mkCores(eng, 4)
	re.Rearm(next)
	fresh = New(eng, next)
	drive(eng, next)
	re.Finalize()
	fresh.Finalize()
	if !same(re, fresh) {
		t.Fatal("re-armed tracer differs from a fresh one on replacement cores")
	}
}

// refResidency is the oracle for the tracer's per-core residencies:
// time in each state accumulated interval by interval from the cores'
// transition callbacks, from the instant it attaches.
type refResidency struct {
	eng   *sim.Engine
	start sim.Time
	cores []*cpu.Core
	state []cpu.CState
	since []sim.Time
	res   [][cpu.NumCStates]sim.Duration
}

func newRefResidency(eng *sim.Engine, cores []*cpu.Core) *refResidency {
	n := len(cores)
	r := &refResidency{
		eng:   eng,
		start: eng.Now(),
		cores: cores,
		state: make([]cpu.CState, n),
		since: make([]sim.Time, n),
		res:   make([][cpu.NumCStates]sim.Duration, n),
	}
	for i, c := range cores {
		r.state[i] = c.State()
		r.since[i] = r.start
		c.OnTransition(func(old, new cpu.CState) {
			now := eng.Now()
			r.res[i][old] += now - r.since[i]
			r.since[i] = now
			r.state[i] = new
		})
	}
	return r
}

// finalize closes each core's open interval at the current instant.
func (r *refResidency) finalize() {
	now := r.eng.Now()
	for i := range r.cores {
		r.res[i][r.state[i]] += now - r.since[i]
		r.since[i] = now
	}
}

// check compares the tracer's CoreResidency and MeanResidency with the
// oracle's, exactly.
func (r *refResidency) check(t *testing.T, what string, tr *Tracer) {
	t.Helper()
	el := float64(r.eng.Now() - r.start)
	var cc6 sim.Duration
	for s := cpu.CC0; s <= cpu.CC6; s++ {
		var sum float64
		for i := range r.cores {
			want := float64(r.res[i][s]) / el
			if got := tr.CoreResidency(i, s); got != want {
				t.Fatalf("%s: core %d %v residency %v, oracle %v", what, i, s, got, want)
			}
			sum += want
			if s == cpu.CC6 {
				cc6 += r.res[i][s]
			}
		}
		if got, want := tr.MeanResidency(s), sum/float64(len(r.cores)); got != want {
			t.Fatalf("%s: mean %v residency %v, oracle %v", what, s, got, want)
		}
	}
	if cc6 == 0 {
		t.Fatalf("%s: no core reached CC6, so the deep state went unchecked", what)
	}
}

// TestResidencyMatchesTransitionOracle checks that the residencies the
// tracer reads from the cores' counters equal those accumulated from
// every transition: on cores with history before the tracer attached,
// on those cores rebuilt in place and re-armed, and after a second
// Finalize at the same instant.
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
	ref := newRefResidency(eng, cores)
	drive(eng, cores)
	tr.Finalize()
	ref.finalize()
	ref.check(t, "attached mid-run", tr)
	tr.Finalize()
	ref.check(t, "finalized twice", tr)

	eng.Reset()
	build(eng, cores)
	eng.Run(5 * sim.Microsecond)
	tr.Rearm(cores)
	ref = newRefResidency(eng, cores)
	drive(eng, cores)
	tr.Finalize()
	ref.finalize()
	ref.check(t, "re-armed on rebuilt cores", tr)
}

// TestPerStateAccountingArrays pins the fixed-array accounting: the
// tracer's and the APMU's accessors read 0 for a value that names no
// state, while the states that were occupied keep their counts.
func TestPerStateAccountingArrays(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	tr := New(sys.Engine, sys.Cores)
	sys.Engine.Run(sim.Millisecond)
	sys.Cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
	sys.Engine.Run(2 * sim.Millisecond)
	tr.Finalize()
	for _, s := range []pmu.PkgState{-1, pmu.PkgState(pmu.NumPkgStates), 99} {
		if sys.APMU.Residency(s) != 0 || sys.APMU.Entries(s) != 0 {
			t.Errorf("%v: non-zero APMU accounting for a value that names no state", s)
		}
	}
	for _, s := range []cpu.CState{-1, cpu.CState(cpu.NumCStates), 99} {
		if tr.CoreResidency(0, s) != 0 || tr.MeanResidency(s) != 0 {
			t.Errorf("%v: non-zero residency for a value that names no state", s)
		}
	}
	if tr.CoreResidency(0, cpu.CC1) == 0 || sys.APMU.Entries(pmu.PC1A) != 2 {
		t.Errorf("known states lost their accounting: CC1 %v, PC1A entries %d",
			tr.CoreResidency(0, cpu.CC1), sys.APMU.Entries(pmu.PC1A))
	}
}
