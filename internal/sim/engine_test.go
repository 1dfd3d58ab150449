package sim

// Tests for the pooled radix-queue engine: equivalence against a
// reference container/heap implementation with the documented
// (time, seq) lazy-cancel semantics, generation safety of recycled
// handles, and the zero-allocation guarantee on the steady-state
// schedule→fire cycle.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refQueue reimplement the original container/heap engine
// semantics (lazy cancellation, (time, seq) ordering) as an oracle.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); ev := old[n-1]; *q = old[:n-1]; return ev }

// peekLive discards canceled entries at the top and returns the next
// live event without removing it, or nil.
func (q *refQueue) peekLive() *refEvent {
	for q.Len() > 0 {
		if ev := (*q)[0]; !ev.canceled {
			return ev
		}
		heap.Pop(q)
	}
	return nil
}

func (q *refQueue) popLive() *refEvent {
	ev := q.peekLive()
	if ev != nil {
		heap.Pop(q)
	}
	return ev
}

// TestEquivalenceWithReferenceHeap drives the real engine and the
// reference heap through identical random interleavings and requires
// identical fire order. The operations cover what the radix queue's
// edge cases hinge on: same-instant bursts and short delays; log-uniform
// delays up to 2^40 ns, which spread events over many buckets;
// Run(until) calls that stop short of the next event, followed by
// schedules into [until, next); cancels of a random event and of the
// head, middle or tail of a random bucket; and Reset mid-stream.
func TestEquivalenceWithReferenceHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		e := NewEngine()
		ref := refQueue{}
		var refSeq uint64
		refNow := Time(0)

		var gotOrder, wantOrder []int
		type livePair struct {
			ev  Event
			ref *refEvent
		}
		var live []livePair
		nextID := 0

		schedule := func(d Duration) {
			id := nextID
			nextID++
			ev := e.Schedule(d, Func(func() { gotOrder = append(gotOrder, id) }))
			re := &refEvent{at: refNow + d, seq: refSeq, id: id}
			refSeq++
			heap.Push(&ref, re)
			live = append(live, livePair{ev, re})
		}
		cancel := func(p livePair) {
			got := p.ev.Cancel()
			want := !p.ref.canceled && !fired(wantOrder, p.ref.id)
			if got != want {
				t.Fatalf("trial %d: Cancel(id %d) = %v, reference says %v",
					trial, p.ref.id, got, want)
			}
			if got {
				p.ref.canceled = true
			}
		}

		for op := 0; op < 600; op++ {
			switch rng.Intn(10) {
			case 0, 1: // schedule with a short random delay
				schedule(Duration(rng.Intn(50)))
			case 2: // schedule with a log-uniform delay in [0, 2^40)
				schedule(Duration(rng.Int63n(1 << rng.Intn(41))))
			case 3: // same-instant burst
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					schedule(0)
				}
			case 4: // cancel a random event (live or stale)
				if len(live) > 0 {
					cancel(live[rng.Intn(len(live))])
				}
			case 5: // cancel the head, middle or tail of a random bucket
				if e.mask == 0 {
					break
				}
				var occupied []int
				for b := 0; b < nbuckets; b++ {
					if e.mask&(1<<b) != 0 {
						occupied = append(occupied, b)
					}
				}
				b := occupied[rng.Intn(len(occupied))]
				var list []int32
				for s := e.head[b]; s >= 0; s = e.nodes[s].next {
					list = append(list, s)
				}
				slot := list[[]int{0, len(list) / 2, len(list) - 1}[rng.Intn(3)]]
				for _, p := range live {
					if p.ev.slot == slot && p.ev.Pending() {
						cancel(p)
						break
					}
				}
			case 6: // Run to a point short of the next event, then
				// schedule into the gap [until, next)
				next := ref.peekLive()
				if next == nil || next.at == refNow {
					break
				}
				until := refNow + Duration(rng.Int63n(int64(next.at-refNow)))
				e.Run(until)
				refNow = until
				for n := rng.Intn(4); n > 0; n-- {
					schedule(Duration(rng.Int63n(int64(next.at - until))))
				}
			case 7: // Run to a random horizon, firing what falls before it
				until := refNow + Duration(rng.Int63n(1<<rng.Intn(41)))
				e.Run(until)
				for re := ref.peekLive(); re != nil && re.at <= until; re = ref.peekLive() {
					ref.popLive()
					wantOrder = append(wantOrder, re.id)
				}
				refNow = until
			case 8: // step both; rarely, Reset both mid-stream
				if rng.Intn(20) == 0 {
					e.Reset()
					for _, re := range ref {
						re.canceled = true
					}
					ref = ref[:0]
					refNow = 0
					break
				}
				fallthrough
			case 9: // step both
				stepped := e.Step()
				re := ref.popLive()
				if stepped != (re != nil) {
					t.Fatalf("trial %d: Step=%v but reference has live=%v", trial, stepped, re != nil)
				}
				if re != nil {
					refNow = re.at
					wantOrder = append(wantOrder, re.id)
				}
			}
			if e.Now() != refNow {
				t.Fatalf("trial %d op %d: Now = %dns, reference %dns", trial, op, int64(e.Now()), int64(refNow))
			}
		}
		// Drain both.
		for e.Step() {
		}
		for re := ref.popLive(); re != nil; re = ref.popLive() {
			wantOrder = append(wantOrder, re.id)
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got %d want %d",
					trial, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

func fired(order []int, id int) bool {
	for _, v := range order {
		if v == id {
			return true
		}
	}
	return false
}

// TestStaleHandleCannotTouchRecycledSlot checks the generation guard: a
// handle to a fired or canceled event must stay dead even after its
// arena slot is recycled for a new event.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(5, Func(func() {}))
	e.Run(10)
	if h1.Pending() {
		t.Fatal("fired event still pending")
	}
	// The freed slot is recycled by the next Schedule.
	ran := false
	h2 := e.Schedule(5, Func(func() { ran = true }))
	if h1.Pending() {
		t.Fatal("stale handle reports recycled slot as pending")
	}
	if h1.Cancel() {
		t.Fatal("stale handle canceled a recycled slot's event")
	}
	if !h2.Pending() {
		t.Fatal("new event should be pending")
	}
	e.Run(20)
	if !ran {
		t.Fatal("new event did not fire")
	}

	// Same via Cancel: cancel, recycle, poke the stale handle.
	h3 := e.Schedule(5, Func(func() {}))
	h3.Cancel()
	ran = false
	h4 := e.Schedule(5, Func(func() { ran = true }))
	if h3.Pending() || h3.Cancel() {
		t.Fatal("canceled handle came back to life after slot reuse")
	}
	e.Run(e.Now() + 10)
	if !ran {
		t.Fatal("event after canceled-slot reuse did not fire")
	}
	_ = h4
}

// TestCancelRemovesFromQueue checks the true-removal satellite: canceled
// events leave Pending() immediately instead of lingering as graveyard
// entries.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.Schedule(Time(10+i), Func(func() {})))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if got := e.Pending(); got != 50 {
		t.Fatalf("Pending = %d after canceling half, want 50", got)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestSameInstantRingInterleavesWithHeap checks the (time, seq) contract
// at one instant: events queued for instant T before time reached it
// precede events scheduled *at* T for T, and FIFO order holds within
// each. (The name predates the radix queue, which files both kinds in
// bucket 0; the engine once kept same-instant events in a separate ring.)
func TestSameInstantRingInterleavesWithHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, Func(func() {
		order = append(order, 0)
		e.Schedule(0, Func(func() { order = append(order, 3) }))
		e.Schedule(0, Func(func() { order = append(order, 4) }))
	}))
	e.Schedule(10, Func(func() { order = append(order, 1) })) // before T, seq 1
	e.Schedule(10, Func(func() { order = append(order, 2) })) // before T, seq 2
	e.Run(10)
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestCancelRingEvent cancels a same-instant event between scheduling
// and firing: a removal from the middle of bucket 0.
func TestCancelRingEvent(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, Func(func() {
		e.Schedule(0, Func(func() { order = append(order, 1) }))
		bad := e.Schedule(0, Func(func() { t.Fatal("canceled same-instant event ran") }))
		e.Schedule(0, Func(func() { order = append(order, 2) }))
		bad.Cancel()
		if e.Pending() != 2 {
			t.Fatalf("Pending = %d inside handler, want 2", e.Pending())
		}
	}))
	e.Run(20)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// TestScheduleFireAllocFree is the allocs/op regression gate for the
// pooled engine: after warmup, the schedule→fire cycle must not allocate,
// whether the event is later, at the same instant, canceled, or part of
// the device-model delay mix.
func TestScheduleFireAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1000; i++ { // warm the arena and free list
		e.Schedule(Duration(i%3), Func(fn))
	}
	for e.Step() {
	}

	if avg := testing.AllocsPerRun(2000, func() {
		e.Schedule(1, Func(fn))
		e.Step()
	}); avg != 0 {
		t.Errorf("later event: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		e.Schedule(0, Func(fn))
		e.Step()
	}); avg != 0 {
		t.Errorf("same-instant event: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		ev := e.Schedule(5, Func(fn))
		ev.Cancel()
	}); avg != 0 {
		t.Errorf("schedule+cancel: %v allocs/op, want 0", avg)
	}
	mixed := newMixedEngine()
	if avg := testing.AllocsPerRun(2000, func() { mixed.Step() }); avg != 0 {
		t.Errorf("delay mix: %v allocs/op, want 0", avg)
	}
}

// BenchmarkScheduleFireSameInstant measures events scheduled for the
// current instant.
func BenchmarkScheduleFireSameInstant(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, Func(fn))
		e.Step()
	}
}

// BenchmarkScheduleCancel measures schedule followed by true removal.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%64)+1, Func(fn)).Cancel()
	}
}

// BenchmarkChurn1k measures schedule→fire with 1024 events resident, the
// depth a loaded 36-core simulation actually sees.
func BenchmarkChurn1k(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(1+i), Func(fn))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1025, Func(fn))
		e.Step()
	}
}

// newMixedEngine returns a warmed engine holding 32 resident event
// chains whose follow-ups are drawn from the device models' delay mix:
// 10/24/90/300 ns (CKE entry and exit, DRAM access, a PMU step) half the
// time, 5–50 µs service times, and one draw in 16 a 1–2 ms timeout. The
// one outstanding timeout is re-armed on each such draw: the previous
// one is canceled before it fires, and its chain continues with a short
// event, so every Step fires one event and the resident count stays 32.
func newMixedEngine() *Engine {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Duration, 1024)
	for i := range delays {
		switch k := rng.Intn(16); {
		case k < 8:
			delays[i] = []Duration{10, 24, 90, 300}[k/2]
		case k < 15:
			delays[i] = 5*Microsecond + Duration(rng.Int63n(int64(45*Microsecond)))
		default:
			delays[i] = Millisecond + Duration(rng.Int63n(int64(Millisecond)))
		}
	}
	e := NewEngine()
	var timer Event
	next := 0
	var chain func()
	chain = func() {
		d := delays[next%len(delays)]
		next++
		if d >= Millisecond {
			if timer.Cancel() {
				e.Schedule(90, Func(chain))
			}
			timer = e.Schedule(d, Func(chain))
			return
		}
		e.Schedule(d, Func(chain))
	}
	for i := 0; i < 32; i++ {
		e.Schedule(delays[i], Func(chain))
	}
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	return e
}

// BenchmarkScheduleFireMixed measures one fire plus its follow-up with
// 32 events resident, spread over the delay mix the device models
// produce.
func BenchmarkScheduleFireMixed(b *testing.B) {
	e := newMixedEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
