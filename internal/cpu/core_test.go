package cpu

import (
	"testing"

	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func newCore(eng *sim.Engine) *Core {
	return new(Core).Init(eng, 0, DefaultParams(), ShallowGovernor{},
		PerformancePolicy{Nominal: 2.2}, nil)
}

func TestCStateStrings(t *testing.T) {
	if CC0.String() != "CC0" || CC1.String() != "CC1" || CC1E.String() != "CC1E" || CC6.String() != "CC6" {
		t.Fatal("state names wrong")
	}
	if CState(9).String() != "CState(9)" {
		t.Fatal("unknown format wrong")
	}
	if CC0.Idle() || !CC1.Idle() || !CC6.Idle() {
		t.Fatal("Idle() wrong")
	}
}

func TestParamsAccessors(t *testing.T) {
	p := DefaultParams()
	if p.ExitLatency(CC6) != 133*sim.Microsecond {
		t.Fatalf("CC6 exit = %v, want 133us (paper Sec 3.1)", p.ExitLatency(CC6))
	}
	if p.ExitLatency(CC0) != 0 {
		t.Fatal("CC0 has no exit latency")
	}
	if p.StateWatts(CC0) != 5.35 || p.StateWatts(CC1) != 1.25 || p.StateWatts(CC6) != 0.04 {
		t.Fatal("power ladder wrong")
	}
}

func TestStartsIdleInCC1(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	if c.State() != CC1 || !c.InCC1().Level() || c.Busy() {
		t.Fatal("core should boot idle in CC1")
	}
}

func TestWakeRunSleepCycle(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var startedAt, doneAt sim.Time = -1, -1
	c.Enqueue(Work{
		Duration: 10 * sim.Microsecond,
		OnStart:  sim.Func(func() { startedAt = eng.Now() }),
		OnDone:   sim.Func(func() { doneAt = eng.Now() }),
	})
	// InCC1 must drop immediately (wake begins).
	if c.InCC1().Level() {
		t.Fatal("InCC1 should drop at wake start")
	}
	eng.Run(sim.Millisecond)
	if startedAt != 2*sim.Microsecond {
		t.Fatalf("work started at %v, want 2us (CC1 exit)", startedAt)
	}
	if doneAt != 12*sim.Microsecond {
		t.Fatalf("work done at %v, want 12us", doneAt)
	}
	if c.State() != CC1 {
		t.Fatalf("state %v after idle entry, want CC1", c.State())
	}
	if c.WorkDone() != 1 || c.Wakes(CC1) != 1 {
		t.Fatal("counters wrong")
	}
}

func TestIdleEntryDelay(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	c.Enqueue(Work{Duration: 10 * sim.Microsecond})
	eng.Run(12*sim.Microsecond + 500*sim.Nanosecond) // work done at 12us; idle entry at 13us
	if c.State() != CC0 {
		t.Fatalf("state %v during idle-entry window, want CC0", c.State())
	}
	eng.Run(13 * sim.Microsecond)
	if c.State() != CC1 {
		t.Fatalf("state %v after idle-entry window, want CC1", c.State())
	}
}

func TestWorkDuringIdleEntryWindowAvoidsExitCost(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	c.Enqueue(Work{Duration: 10 * sim.Microsecond})
	eng.Run(12*sim.Microsecond + 200*sim.Nanosecond)
	var startedAt sim.Time = -1
	c.Enqueue(Work{Duration: sim.Microsecond, OnStart: sim.Func(func() { startedAt = eng.Now() })})
	if startedAt != eng.Now() {
		t.Fatalf("work should start immediately in the idle-entry window, started %v", startedAt)
	}
}

func TestQueueingFIFO(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Enqueue(Work{Duration: 5 * sim.Microsecond, OnDone: sim.Func(func() { order = append(order, i) })})
	}
	if c.QueueLen() != 3 { // all still queued: the core is waking
		t.Fatalf("QueueLen = %d, want 3", c.QueueLen())
	}
	eng.Run(sim.Millisecond)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	// Back-to-back: 2us wake + 3*5us = 17us total.
	if c.WorkDone() != 3 {
		t.Fatal("not all work done")
	}
}

func TestMenuGovernorDeepensOnLongIdles(t *testing.T) {
	g := NewMenuGovernor()
	if g.ChooseIdleState() != CC6 {
		t.Fatal("menu governor starts deep")
	}
	for i := 0; i < 10; i++ {
		g.RecordIdle(10 * sim.Microsecond)
	}
	if got := g.ChooseIdleState(); got != CC1 {
		t.Fatalf("after short idles: %v, want CC1", got)
	}
	for i := 0; i < 30; i++ {
		g.RecordIdle(2 * sim.Millisecond)
	}
	if got := g.ChooseIdleState(); got != CC6 {
		t.Fatalf("after long idles: %v, want CC6", got)
	}
	for i := 0; i < 30; i++ {
		g.RecordIdle(100 * sim.Microsecond)
	}
	if got := g.ChooseIdleState(); got != CC1E {
		t.Fatalf("after medium idles: %v, want CC1E", got)
	}
}

func TestCC6WakeCosts133us(t *testing.T) {
	eng := sim.NewEngine()
	gov := NewMenuGovernor()
	c := new(Core).Init(eng, 0, DefaultParams(), gov, PerformancePolicy{Nominal: 2.2}, nil)
	// A long boot idle then one short job: the governor records the long
	// idle and keeps predicting deep.
	eng.Run(10 * sim.Millisecond)
	c.Enqueue(Work{Duration: sim.Microsecond})
	eng.Run(20 * sim.Millisecond)
	if c.State() != CC6 {
		t.Fatalf("state %v, want CC6", c.State())
	}
	var startedAt sim.Time = -1
	t0 := eng.Now()
	c.Enqueue(Work{Duration: sim.Microsecond, OnStart: sim.Func(func() { startedAt = eng.Now() })})
	eng.Run(eng.Now() + sim.Millisecond)
	if startedAt-t0 != 133*sim.Microsecond {
		t.Fatalf("CC6 wake took %v, want 133us", startedAt-t0)
	}
	if c.Wakes(CC6) != 1 {
		t.Fatal("CC6 wake not counted")
	}
}

func TestShallowGovernorNeverDeep(t *testing.T) {
	g := ShallowGovernor{}
	for i := 0; i < 5; i++ {
		g.RecordIdle(sim.Second)
		if g.ChooseIdleState() != CC1 {
			t.Fatal("shallow governor must always pick CC1")
		}
	}
}

func TestPowerTracksState(t *testing.T) {
	eng := sim.NewEngine()
	m := new(power.Meter).Init(eng)
	ch := m.Channel(sim.Named("core0"), power.Package)
	c := new(Core).Init(eng, 0, DefaultParams(), ShallowGovernor{}, PerformancePolicy{Nominal: 2.2}, ch)
	if ch.Watts() != 1.25 {
		t.Fatalf("CC1 power %v", ch.Watts())
	}
	c.Enqueue(Work{Duration: 10 * sim.Microsecond})
	eng.Run(5 * sim.Microsecond) // executing
	if ch.Watts() != 5.35 {
		t.Fatalf("CC0 power %v at nominal", ch.Watts())
	}
	eng.Run(sim.Millisecond)
	if ch.Watts() != 1.25 {
		t.Fatalf("idle power %v", ch.Watts())
	}
}

func TestPowersaveFrequencyScalesServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	pol := &PowersavePolicy{Min: 0.8, Max: 3.0}
	c := new(Core).Init(eng, 0, DefaultParams(), ShallowGovernor{}, pol, nil)
	// With zero utilization history, powersave runs at Min = 0.8 GHz:
	// a 10us@2.2GHz job takes 27.5us.
	var doneAt sim.Time = -1
	c.Enqueue(Work{Duration: 10 * sim.Microsecond, OnDone: sim.Func(func() { doneAt = eng.Now() })})
	eng.Run(sim.Millisecond)
	want := 2*sim.Microsecond + sim.Duration(float64(10*sim.Microsecond)*2.2/0.8)
	if doneAt != want {
		t.Fatalf("done at %v, want %v (0.8GHz execution)", doneAt, want)
	}
}

func TestPowersaveUtilizationRaisesFrequency(t *testing.T) {
	p := &PowersavePolicy{Min: 0.8, Max: 3.0}
	if p.GHz() != 0.8 {
		t.Fatal("powersave should start at min")
	}
	for i := 0; i < 50; i++ {
		p.OnBusyFraction(1.0)
	}
	if p.GHz() < 2.9 {
		t.Fatalf("GHz = %v after sustained load, want near max", p.GHz())
	}
	p.OnBusyFraction(2.0)  // clamped
	p.OnBusyFraction(-1.0) // clamped
	if g := p.GHz(); g < 0.8 || g > 3.0 {
		t.Fatalf("GHz = %v out of range after clamping", g)
	}
}

func TestWakeInterrupt(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	c.WakeInterrupt(2 * sim.Microsecond)
	eng.Run(3 * sim.Microsecond) // 2us wake + executing kernel path
	if c.State() != CC0 {
		t.Fatalf("state %v, want CC0 handling interrupt", c.State())
	}
	eng.Run(sim.Millisecond)
	if c.State() != CC1 {
		t.Fatal("should re-idle after interrupt")
	}
}

func TestTransitionCallback(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var transitions []CState
	c.OnTransition(func(old, new CState) { transitions = append(transitions, new) })
	c.Enqueue(Work{Duration: 5 * sim.Microsecond})
	eng.Run(sim.Millisecond)
	// CC1 -> CC0 -> CC1
	if len(transitions) != 2 || transitions[0] != CC0 || transitions[1] != CC1 {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestInCC1TreeAcrossCores(t *testing.T) {
	eng := sim.NewEngine()
	cores := make([]*Core, 4)
	for i := range cores {
		cores[i] = new(Core).Init(eng, i, DefaultParams(), ShallowGovernor{}, PerformancePolicy{Nominal: 2.2}, nil)
	}
	// All idle at boot: each InCC1 high.
	for _, c := range cores {
		if !c.InCC1().Level() {
			t.Fatal("boot idle expected")
		}
	}
	cores[2].Enqueue(Work{Duration: 10 * sim.Microsecond})
	if cores[2].InCC1().Level() {
		t.Fatal("waking core must drop InCC1")
	}
	eng.Run(sim.Millisecond)
	if !cores[2].InCC1().Level() {
		t.Fatal("InCC1 should rise after re-idle")
	}
}

func TestGovernorAndPolicyStrings(t *testing.T) {
	if (ShallowGovernor{}).String() == "" || NewMenuGovernor().String() == "" {
		t.Fatal("governor strings empty")
	}
	if (PerformancePolicy{Nominal: 2.2}).String() == "" || (&PowersavePolicy{Min: 0.8, Max: 3.0}).String() == "" {
		t.Fatal("policy strings empty")
	}
}

// refill keeps a core busy: each completion feeds the next item while
// any are left, so the run queue never drains and never holds more than
// the three items a burst starts with. It feeds from an engine event of
// its own, as a NIC interrupt would, not from inside the completion.
type refill struct {
	c    *Core
	left int
}

// Fire feeds the next item.
func (r *refill) Fire() {
	if r.left > 0 {
		r.left--
		r.c.Enqueue(Work{Duration: sim.Microsecond, OnDone: (*refillDone)(r)})
	}
}

// refillDone is an item's completion: it schedules the next feed.
type refillDone refill

func (d *refillDone) Fire() { d.c.eng.Schedule(0, (*refill)(d)) }

// TestRunQueueGrowsWithDepthOnly pins the run-queue ring: storage grows
// with the deepest the queue has been, not with how many items pass
// through one busy period. Once a first burst has outgrown the two
// inline slots, a core kept busy at depth ≤ 3 for 1,000 items allocates
// nothing.
func TestRunQueueGrowsWithDepthOnly(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	r := &refill{c: c}
	burst := func(items int) {
		r.left = items - 3
		for i := 0; i < 3; i++ {
			c.Enqueue(Work{Duration: sim.Microsecond, OnDone: (*refillDone)(r)})
		}
		eng.Run(eng.Now() + sim.Second)
	}
	burst(3) // three items outgrow the inline slots: the one growth
	// Each burst is longer than any before it, so storage sized by the
	// items a busy period carries would have to grow again: AllocsPerRun
	// warms up on 500 items and measures 1,000.
	items := 0
	if allocs := testing.AllocsPerRun(1, func() { items += 500; burst(items) }); allocs != 0 {
		t.Errorf("1,000 items at depth ≤ 3 allocated %v times, want 0", allocs)
	}
	if c.WorkDone() != 3+500+1000 {
		t.Fatalf("completed %d items, want %d", c.WorkDone(), 3+500+1000)
	}
	if w := c.Wakes(CC1); w != 3 {
		t.Fatalf("core woke %d times, want once per burst (3): a burst drained the queue", w)
	}
}

// TestEnqueueFromOwnHandler pins that work a core's own OnStart or
// OnDone enqueues runs after the item in hand, not beside it: the core
// executes one item at a time and does not idle between them.
func TestEnqueueFromOwnHandler(t *testing.T) {
	eng := sim.NewEngine()
	c := newCore(eng)
	var ends []sim.Time
	var w Work
	w = Work{Duration: sim.Microsecond, OnDone: sim.Func(func() {
		ends = append(ends, eng.Now())
		if len(ends) < 3 {
			c.Enqueue(w)
		}
	})}
	started := 0
	c.Enqueue(Work{Duration: sim.Microsecond, OnStart: sim.Func(func() {
		started++
		c.Enqueue(w)
	})})
	eng.Run(100 * sim.Microsecond)
	exit := DefaultParams().CC1Exit
	ghz := 2.2
	d := sim.Duration(float64(sim.Microsecond) * ghz / ghz) // one item, scaled as the core scales it
	want := []sim.Time{exit + 2*d, exit + 3*d, exit + 4*d}
	if started != 1 || len(ends) != len(want) {
		t.Fatalf("started %d, completions at %v; want 1 and %v", started, ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("completions at %v, want %v: items overlapped or idled", ends, want)
		}
	}
	if c.WorkDone() != 4 || c.Wakes(CC1) != 1 {
		t.Fatalf("done %d, wakes %d; want 4 and 1", c.WorkDone(), c.Wakes(CC1))
	}
}

// TestResidencySumsToTimeSinceInit checks the core's residency counters
// against the clock: at any instant, mid-interval included, a core's
// per-state residencies sum exactly, in integer nanoseconds, to the time
// since its Init. It drives a shallow-only core (Cshallow) and a menu
// core that reaches CC6 (Cdeep), built at a non-zero instant and again
// rebuilt in place on a rewound engine.
func TestResidencySumsToTimeSinceInit(t *testing.T) {
	for _, cfg := range []struct {
		name string
		gov  func() Governor
		freq func() FreqPolicy
		deep bool
	}{
		{"cshallow", func() Governor { return ShallowGovernor{} },
			func() FreqPolicy { return PerformancePolicy{Nominal: 2.2} }, false},
		{"cdeep", func() Governor { return NewMenuGovernor() },
			func() FreqPolicy { return &PowersavePolicy{Min: 1.0, Max: 2.2} }, true},
	} {
		eng := sim.NewEngine()
		eng.Run(3 * sim.Millisecond)
		c := new(Core)
		for _, rebuild := range []string{"first build", "rewind"} {
			if rebuild == "rewind" {
				eng.Reset()
			}
			built := eng.Now()
			c.Init(eng, 0, DefaultParams(), cfg.gov(), cfg.freq(), nil)
			check := func() {
				t.Helper()
				var sum sim.Duration
				for s := CC0; s <= CC6; s++ {
					sum += c.Residency(s)
				}
				if want := eng.Now() - built; sum != want {
					t.Fatalf("%s, %s: residencies sum to %d ns at %v in %v, want %d",
						cfg.name, rebuild, sum, eng.Now(), c.State(), want)
				}
			}
			check()
			for i := 0; i < 40; i++ {
				c.Enqueue(Work{Duration: sim.Duration(3+i%7) * sim.Microsecond})
				// Idle gaps alternate short and long, so the menu
				// governor moves between its states.
				gap := 37 * sim.Microsecond
				if i%4 == 3 {
					gap = 2 * sim.Millisecond
				}
				eng.Run(eng.Now() + gap/2)
				check()
				eng.Run(eng.Now() + gap - gap/2)
				check()
			}
			if deep := c.Residency(CC6) > 0; deep != cfg.deep {
				t.Fatalf("%s, %s: CC6 residency %v", cfg.name, rebuild, c.Residency(CC6))
			}
			if c.Residency(CC0) == 0 || c.Residency(CC1) == 0 {
				t.Fatalf("%s, %s: CC0 %v, CC1 %v: the core neither ran nor idled shallow",
					cfg.name, rebuild, c.Residency(CC0), c.Residency(CC1))
			}
			for _, s := range []CState{-1, CState(NumCStates), 99} {
				if c.Residency(s) != 0 {
					t.Fatalf("%v: non-zero residency for a value that names no state", s)
				}
			}
		}
	}
}
