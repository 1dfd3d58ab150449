// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the AgilePkgC models (cores, IO links, voltage regulators, power
// management units, workloads) are written against this engine. Time is
// virtual and advances only when events fire; between events the modeled
// hardware is in a piecewise-constant state, which is exactly the
// semantics the power accounting in package power relies on.
//
// The engine is single-threaded and deterministic: events scheduled for
// the same instant fire in scheduling order (FIFO), so repeated runs with
// the same seed produce identical traces. Independent engines are fully
// isolated and may run concurrently on separate goroutines; that is how
// package experiments fans sweep points across cores.
//
// # Implementation
//
// The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// JACM 1990) threaded through a pooled arena of event nodes. Event times
// never go backwards (At panics on t < now), so every queued event can be
// filed by the highest bit in which its time differs from last, the time
// of the last event popped: bucket 0 holds events at exactly last, bucket
// i holds those differing first at bit i-1. Scheduling appends to a
// bucket's FIFO list without a single comparison; popping takes the head
// of bucket 0, refilling it when empty by redistributing the lowest
// non-empty bucket around that bucket's minimum. Equal times always share
// a bucket and lists are append-only and relinked stably, so bucket 0
// pops in exact (time, scheduling order). Cancel unlinks the node: true
// O(1) removal. Nodes are recycled through a free list, so the
// steady-state Schedule→fire cycle performs zero heap allocations.
// Handles are generation-checked: a stale Event (fired or canceled) can
// never cancel a recycled node. See DESIGN.md for the full ordering
// contract.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
//
// One nanosecond is fine-grained enough for every mechanism in the paper:
// the agile PMU runs at 500 MHz (2 ns per cycle), FIVR voltage slews at
// 2 mV/ns, and the shortest IO transition (L0p exit) is about 10 ns.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is a separate
// name from Time only for documentation; arithmetic mixes them freely.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Fits reports whether v units of time fit a Duration in nanoseconds.
// Go leaves an out-of-range float-to-integer conversion
// implementation-dependent (amd64 yields MinInt64, arm64 saturates), so
// code that converts float time from its input checks here first. NaN
// and the infinities do not fit.
func Fits(v float64, unit Duration) bool {
	ns := v * float64(unit)
	return ns >= math.MinInt64 && ns < math.MaxInt64
}

// Seconds returns the time as a floating-point number of seconds.
//
//apcvet:noalloc
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
//
//apcvet:noalloc
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Handler is what an event does when it fires. Model code implements it
// on the record or device the event belongs to, usually switching on a
// stage field the record keeps, or through a small named type per timer
// where several of a device's events can be pending at once; converting
// a pointer to a Handler allocates nothing. Func adapts a plain closure,
// the form tests and cold paths use.
type Handler interface {
	Fire()
}

// Func adapts an ordinary function to a Handler, as http.HandlerFunc
// does for http.Handler. A func value is pointer-shaped, so the
// conversion to Handler allocates nothing beyond the closure itself.
type Func func()

// Fire calls f.
//
//apcvet:noalloc
func (f Func) Fire() { f() }

// Event is a handle to a scheduled handler, returned by Engine.Schedule
// and Engine.At. It is a small value (copy it freely); the zero Event is
// valid and permanently not pending, so model structs can hold an Event
// field and Cancel it unconditionally.
//
// Handles are generation-checked against the engine's node arena: once
// the event fires or is canceled its node may be recycled for a future
// event, but this handle keeps reporting Pending() == false and
// Cancel() == false forever.
type Event struct {
	eng  *Engine
	at   Time
	gen  uint32
	slot int32
}

// At returns the virtual time the event was scheduled for.
func (ev Event) At() Time { return ev.at }

// Cancel prevents the event from firing and removes it from the queue.
// Canceling an already-fired, already-canceled, or zero Event is a no-op.
// Cancel returns true if the event was pending and is now canceled.
//
//apcvet:noalloc
func (ev Event) Cancel() bool {
	if ev.eng == nil {
		return false
	}
	return ev.eng.cancel(ev.slot, ev.gen)
}

// Pending reports whether the event is still scheduled to fire.
//
//apcvet:noalloc
func (ev Event) Pending() bool {
	if ev.eng == nil {
		return false
	}
	n := &ev.eng.nodes[ev.slot]
	return n.gen == ev.gen
}

// nbuckets is the radix queue's bucket count: bucket 0 for events at
// exactly last, plus one per bit in which a time can differ from it.
const nbuckets = 65

// node is one slot of the engine's pooled event arena. A node is live
// while its event is queued, linked into its bucket's FIFO list through
// prev/next (-1 ends the list), and is recycled through the free list
// once the event fires or is canceled; recycling bumps gen so stale
// handles die.
type node struct {
	h      Handler
	at     Time
	gen    uint32
	prev   int32
	next   int32
	bucket uint8
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now Time
	// last is the radix base: the time of the last event popped, or now
	// when the queue last ran dry. Every queued event is at or after it,
	// and it never passes a time that can still be scheduled (last <= now).
	last Time

	nodes []node
	free  []int32

	// head/tail are the ends of each bucket's FIFO list; they are
	// meaningful only while the bucket's bit is set in mask.
	head, tail [nbuckets]int32
	mask       uint64
	live       int

	// Stats
	fired uint64
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
//
//apcvet:noalloc
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the total number of events executed so far. It is
// useful for benchmarking and for asserting that flows have quiesced.
//
//apcvet:noalloc
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently queued. Canceled events
// are never counted.
//
//apcvet:noalloc
func (e *Engine) Pending() int { return e.live }

// Reset returns the engine to its initial state — time zero, empty
// queue, zero counters — while keeping the node arena and free-list
// storage, so a simulation can be rebuilt on the engine without
// re-growing any backing array. Every outstanding Event handle goes
// permanently stale, exactly as if each pending event had been canceled.
// The free list is stacked so slots are reissued in arena order: a
// rebuilt simulation sees the same slot numbering a fresh engine would
// produce, which keeps reset-vs-fresh runs easy to diff event-for-event.
func (e *Engine) Reset() {
	e.now, e.last, e.fired = 0, 0, 0
	e.mask, e.live = 0, 0
	e.free = e.free[:0]
	for i := len(e.nodes) - 1; i >= 0; i-- {
		nd := &e.nodes[i]
		nd.h = nil
		nd.gen++
		e.free = append(e.free, int32(i))
	}
}

// Schedule arranges for h to fire after delay d. A negative delay
// panics: the hardware being modeled cannot signal into the past.
//
//apcvet:noalloc
func (e *Engine) Schedule(d Duration, h Handler) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	return e.At(e.now+d, h)
}

// At arranges for h to fire at absolute time t, which must not be in the
// past. Events scheduled for the same instant fire in scheduling order.
//
//apcvet:noalloc
func (e *Engine) At(t Time, h Handler) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	slot := e.alloc()
	nd := &e.nodes[slot]
	nd.h = h
	nd.at = t
	e.push(slot)
	e.live++
	return Event{eng: e, at: t, gen: nd.gen, slot: slot}
}

// alloc pops a free node slot, growing the arena when the free list is
// empty. Node generations start at 1 so a live node never matches a
// zero handle.
//
//apcvet:noalloc
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.nodes = append(e.nodes, node{gen: 1})
	return int32(len(e.nodes) - 1)
}

// release recycles a node after its event fired or was canceled, bumping
// the generation so outstanding handles go stale.
//
//apcvet:noalloc
func (e *Engine) release(slot int32) {
	nd := &e.nodes[slot]
	nd.h = nil
	nd.gen++
	e.free = append(e.free, slot)
}

// push appends the node to the tail of the bucket its time falls in
// relative to last.
//
//apcvet:noalloc
func (e *Engine) push(slot int32) {
	nd := &e.nodes[slot]
	b := bits.Len64(uint64(nd.at ^ e.last))
	nd.bucket = uint8(b)
	nd.next = -1
	if e.mask&(1<<b) == 0 {
		e.mask |= 1 << b
		e.head[b] = slot
		nd.prev = -1
	} else {
		t := e.tail[b]
		e.nodes[t].next = slot
		nd.prev = t
	}
	e.tail[b] = slot
}

// unlink removes the node from its bucket's list.
//
//apcvet:noalloc
func (e *Engine) unlink(slot int32) {
	nd := &e.nodes[slot]
	b, prev, next := nd.bucket, nd.prev, nd.next
	if prev >= 0 {
		e.nodes[prev].next = next
	} else {
		e.head[b] = next
	}
	if next >= 0 {
		e.nodes[next].prev = prev
	} else {
		e.tail[b] = prev
	}
	if prev < 0 && next < 0 {
		e.mask &^= 1 << b
	}
}

// cancel removes and releases the event in slot if gen still matches.
//
//apcvet:noalloc
func (e *Engine) cancel(slot int32, gen uint32) bool {
	if e.nodes[slot].gen != gen {
		return false
	}
	e.unlink(slot)
	e.release(slot)
	e.live--
	return true
}

// Step executes the next pending event, advancing time to it. It returns
// false if the queue is empty.
//
//apcvet:noalloc
func (e *Engine) Step() bool {
	return e.step(1<<63 - 1)
}

// step fires the earliest event with time <= limit. It is the single
// scheduling pass shared by Step and Run.
//
//apcvet:noalloc
func (e *Engine) step(limit Time) bool {
	if e.mask&1 == 0 && !e.refill(limit) {
		return false
	}
	slot := e.head[0]
	e.unlink(slot)
	e.live--
	e.now = e.last
	e.fire(slot)
	return true
}

// refill moves the earliest events into the empty bucket 0 if they fire
// no later than limit. It finds the minimum time m of the lowest
// non-empty bucket, makes m the new radix base, and relinks that bucket's
// events in list order: each lands in a strictly lower bucket, those at m
// in bucket 0. Higher buckets keep their index, since m agrees with the
// old base on every bit above the refilled bucket's. When m is past
// limit, last stays put: Run is about to stop short, and times in
// [limit, m) may still be scheduled.
//
//apcvet:noalloc
func (e *Engine) refill(limit Time) bool {
	if e.mask == 0 {
		return false
	}
	b := bits.TrailingZeros64(e.mask)
	s := e.head[b]
	m := e.nodes[s].at
	for s = e.nodes[s].next; s >= 0; s = e.nodes[s].next {
		m = min(m, e.nodes[s].at)
	}
	if m > limit {
		return false
	}
	e.last = m
	e.mask &^= 1 << b
	for s = e.head[b]; s >= 0; {
		next := e.nodes[s].next
		e.push(s)
		s = next
	}
	return true
}

// fire releases the node (so the event's handle is no longer Pending
// while its handler runs, and the slot can be rescheduled immediately)
// and fires the handler.
//
//apcvet:noalloc
func (e *Engine) fire(slot int32) {
	h := e.nodes[slot].h
	e.release(slot)
	e.fired++
	h.Fire()
}

// Run executes events until the queue is empty or the next event is after
// `until`; it then advances time to exactly `until`. Running to a time in
// the past panics.
//
//apcvet:noalloc
func (e *Engine) Run(until Time) {
	if until < e.now {
		panic(fmt.Sprintf("sim: run until %v before now %v", until, e.now)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	for e.step(until) {
	}
	e.now = until
	if e.mask == 0 {
		e.last = until
	}
}

// RunUntilQuiescent executes events until none remain or the limit on the
// number of events is reached. It returns the number of events executed.
// It is intended for flow tests ("after the wake event, the system settles
// in PC0") where the natural end is an empty queue.
func (e *Engine) RunUntilQuiescent(maxEvents int) int {
	n := 0
	for n < maxEvents && e.Step() {
		n++
	}
	return n
}
