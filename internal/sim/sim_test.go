package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
	if Millisecond != 1e6 || Microsecond != 1e3 || Nanosecond != 1 {
		t.Fatalf("unit constants wrong: %d %d %d", Millisecond, Microsecond, Nanosecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (5 * Microsecond).Micros(); got != 5.0 {
		t.Errorf("Micros() = %v, want 5", got)
	}
}

// TestInHorizon pins the range edge: 2⁶² ns, the horizon rounded to a
// float, is the first magnitude outside it, and NaN and the infinities
// never lie inside.
func TestInHorizon(t *testing.T) {
	cases := []struct {
		v    float64
		unit Duration
		want bool
	}{
		{0, Microsecond, true},
		{-1e9, Second, true},
		{4.6e15, Microsecond, true},
		{4.7e15, Microsecond, false},
		{9.2e15, Microsecond, false},
		{1e17, Microsecond, false},
		{-1e17, Microsecond, false},
		{math.Ldexp(1, 62), Nanosecond, false},
		{-math.Ldexp(1, 62), Nanosecond, false},
		{math.Nextafter(math.Ldexp(1, 62), 0), Nanosecond, true},
		{-math.Nextafter(math.Ldexp(1, 62), 0), Nanosecond, true},
		{math.NaN(), Microsecond, false},
		{math.Inf(1), Nanosecond, false},
		{math.Inf(-1), Nanosecond, false},
	}
	for _, c := range cases {
		if got := InHorizon(c.v, c.unit); got != c.want {
			t.Errorf("InHorizon(%g, %d) = %v, want %v", c.v, c.unit, got, c.want)
		}
	}
	// What passes converts to at most Horizon, so now + delay, both
	// within it, fits the engine's time.
	if d := Duration(math.Nextafter(math.Ldexp(1, 62), 0)); d > Horizon || d+Horizon < 0 {
		t.Errorf("the largest value inside converts to %d, beyond Horizon %d", d, Horizon)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{42, "42ns"},
		{12 * Microsecond, "12.000us"},
		{15 * Millisecond, "15.000ms"},
		{25 * Second, "25.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, Func(func() { order = append(order, 3) }))
	e.Schedule(10, Func(func() { order = append(order, 1) }))
	e.Schedule(20, Func(func() { order = append(order, 2) }))
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %v after Run(100)", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, Func(func() { order = append(order, i) }))
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, Func(func() {
		hits = append(hits, e.Now())
		e.Schedule(5, Func(func() { hits = append(hits, e.Now()) }))
	}))
	e.Run(100)
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestScheduleZeroDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(10, Func(func() {
		e.Schedule(0, Func(func() { ran = true }))
	}))
	e.Run(10)
	if !ran {
		t.Fatal("zero-delay event did not run within Run(10)")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(10, Func(func() { ran = true }))
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !ev.Cancel() {
		t.Fatal("first Cancel should return true")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	e.Run(100)
	if ran {
		t.Fatal("canceled event ran")
	}
	if ev.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestCancelZeroValue(t *testing.T) {
	var ev Event
	if ev.Cancel() {
		t.Fatal("zero Event Cancel should be false")
	}
	if ev.Pending() {
		t.Fatal("zero Event should not be pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, Func(func() {}))
	e.Run(5)
	if ev.Cancel() {
		t.Fatal("Cancel after fire should return false")
	}
}

func TestRunDoesNotExecuteFutureEvents(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(50, Func(func() { ran = true }))
	e.Run(49)
	if ran {
		t.Fatal("event at 50 ran during Run(49)")
	}
	if e.Now() != 49 {
		t.Fatalf("Now() = %v, want 49", e.Now())
	}
	e.Run(50)
	if !ran {
		t.Fatal("event at 50 did not run during Run(50)")
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(10, Func(func() { n++ }))
	e.Schedule(20, Func(func() { n++ }))
	if !e.Step() {
		t.Fatal("Step should execute first event")
	}
	if e.Now() != 10 || n != 1 {
		t.Fatalf("after first Step: now=%v n=%d", e.Now(), n)
	}
	if !e.Step() {
		t.Fatal("Step should execute second event")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestStepSkipsCanceled(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(10, Func(func() { t.Fatal("canceled event ran") }))
	ran := false
	e.Schedule(20, Func(func() { ran = true }))
	ev.Cancel()
	if !e.Step() {
		t.Fatal("Step should find the live event")
	}
	if !ran || e.Now() != 20 {
		t.Fatalf("Step skipped to wrong event: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilQuiescent(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.Schedule(1, Func(chain))
		}
	}
	e.Schedule(1, Func(chain))
	n := e.RunUntilQuiescent(100)
	if n != 5 || count != 5 {
		t.Fatalf("RunUntilQuiescent executed %d (count %d), want 5", n, count)
	}
}

func TestRunUntilQuiescentLimit(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.Schedule(1, Func(loop)) }
	e.Schedule(1, Func(loop))
	n := e.RunUntilQuiescent(50)
	if n != 50 {
		t.Fatalf("limit not respected: %d", n)
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), Func(func() {}))
	}
	e.Run(100)
	if e.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", e.EventsFired())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, Func(func() {}))
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, Func(func() {}))
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(5, Func(func() {}))
}

func TestRunPastPanics(t *testing.T) {
	e := NewEngine()
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Run into the past did not panic")
		}
	}()
	e.Run(5)
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Schedule(Time(10+i), Func(func() {}))
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Run(11)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after two fired, want 2", e.Pending())
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the engine clock equals each event's scheduled time when it
// fires.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		for _, d := range delays {
			d := Time(d)
			e.At(d, Func(func() {
				if e.Now() != d {
					t.Errorf("fired at %v, scheduled %v", e.Now(), d)
				}
				fireTimes = append(fireTimes, e.Now())
			}))
		}
		e.Run(Time(1 << 17))
		if len(fireTimes) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset leaves exactly the complement to run.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%64) + 1
		ran := make([]bool, total)
		evs := make([]Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.Schedule(Time(rng.Intn(1000)), Func(func() { ran[i] = true }))
		}
		canceled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				evs[i].Cancel()
				canceled[i] = true
			}
		}
		e.Run(2000)
		for i := 0; i < total; i++ {
			if ran[i] == canceled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical runs produce identical event sequences.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var log []Time
		var gen func()
		gen = func() {
			log = append(log, e.Now())
			if len(log) < 500 {
				e.Schedule(Time(rng.Intn(100)), Func(gen))
				if rng.Intn(3) == 0 {
					e.Schedule(Time(rng.Intn(100)), Func(func() { log = append(log, e.Now()) }))
				}
			}
		}
		e.Schedule(0, Func(gen))
		e.RunUntilQuiescent(10000)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, Func(func() {}))
		e.Step()
	}
}

// TestEngineReset pins the Reset contract: a reset engine replays a
// schedule exactly as a fresh one would, every outstanding handle goes
// stale, and the reused arena reissues slots in the order a fresh
// engine's arena would.
func TestEngineReset(t *testing.T) {
	type fire struct {
		at  Time
		tag int
	}
	drive := func(e *Engine) []fire {
		var log []fire
		evs := make([]Event, 0, 8)
		for i := 0; i < 6; i++ {
			i := i
			evs = append(evs, e.Schedule(Duration(10*i), Func(func() { log = append(log, fire{e.Now(), i}) })))
		}
		evs[2].Cancel()
		evs[4].Cancel()
		e.Schedule(25, Func(func() { log = append(log, fire{e.Now(), 100}) }))
		e.RunUntilQuiescent(100)
		return log
	}

	e := NewEngine()
	first := drive(e)
	stale := e.Schedule(5, Func(func() { t.Error("pre-reset event fired after Reset") }))

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.EventsFired() != 0 {
		t.Fatalf("Reset left state behind: now=%v pending=%d fired=%d",
			e.Now(), e.Pending(), e.EventsFired())
	}
	if stale.Pending() {
		t.Error("pre-reset handle still pending after Reset")
	}
	if stale.Cancel() {
		t.Error("pre-reset handle cancelable after Reset")
	}

	second := drive(e)
	if len(first) != len(second) {
		t.Fatalf("replay length differs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// ticker is a handler held by pointer: the shape every record and
// device timer in the model takes.
type ticker struct {
	e    *Engine
	left int
}

func (k *ticker) Fire() {
	if k.left > 0 {
		k.left--
		k.e.Schedule(1, k)
	}
}

// TestHandlersScheduleWithoutAllocating pins the point of the Handler
// interface: scheduling a pointer, or a func adapted by Func, stores it
// in the node as is.
func TestHandlersScheduleWithoutAllocating(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e}
	fired := 0
	f := Func(func() { fired++ })
	e.Schedule(0, k)
	e.Schedule(0, f)
	e.Run(e.Now() + 10)
	allocs := testing.AllocsPerRun(100, func() {
		k.left = 10
		e.Schedule(0, k)
		e.Schedule(0, f)
		e.Run(e.Now() + 100)
	})
	if allocs != 0 {
		t.Errorf("scheduling handlers allocated %v times per run, want 0", allocs)
	}
	if fired != 102 {
		t.Errorf("Func fired %d times, want 102", fired)
	}
}
