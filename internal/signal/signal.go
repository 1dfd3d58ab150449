// Package signal models the routed status/control wires of the APC
// architecture (paper Fig. 3): level-triggered signals such as InCC1,
// InL0s, AllowL0s, Allow_CKE_OFF, Ret, PwrOk, ClkGate and InPC1A, plus
// the AND-gate aggregation trees the paper uses to combine per-core and
// per-IO status lines before routing them to the APMU.
//
// Signals are logical wires: propagation is instantaneous (the real
// routing delay is absorbed into the PMU FSM cycle costs, as the paper's
// latency analysis does). Subscribers run synchronously in subscription
// order, which keeps flows deterministic.
package signal

import (
	"fmt"

	"agilepkgc/internal/sim"
)

// Signal is a single-driver, many-reader boolean wire. Devices embed
// their wires by value and hand out pointers to them, so a wire costs
// no allocation of its own; a Signal must not be copied after Init.
type Signal struct {
	name  sim.Name
	level bool
	subs  Listeners[func(bool)]
}

// Init names the wire and sets its initial level, dropping any
// subscribers but keeping their storage, and returns s.
func (s *Signal) Init(name sim.Name, initial bool) *Signal {
	s.name, s.level = name, initial
	s.subs.Reset()
	return s
}

// Name returns the wire's name.
func (s *Signal) Name() string { return s.name.String() }

// Level returns the current level.
func (s *Signal) Level() bool { return s.level }

// Subscribe registers fn to run on every level change, with the new
// level. Subscribers run in subscription order; those added during a
// notification do not see that notification.
func (s *Signal) Subscribe(fn func(level bool)) {
	if fn == nil {
		panic(fmt.Sprintf("signal: nil subscriber on %s", s.name))
	}
	s.subs.Add(fn)
}

// Set drives the wire high. No-op if already high.
func (s *Signal) Set() { s.SetLevel(true) }

// Unset drives the wire low. No-op if already low.
func (s *Signal) Unset() { s.SetLevel(false) }

// SetLevel drives the wire to the given level, notifying subscribers on
// a change.
func (s *Signal) SetLevel(level bool) {
	if s.level == level {
		return
	}
	s.level = level
	// Read the count once, so that subscriptions made inside a callback
	// do not receive this edge.
	n := s.subs.Len()
	for i := 0; i < n; i++ {
		s.subs.At(i)(level)
	}
}

// Listeners is an ordered list of callbacks of type F. Nearly every
// list in the model — a wire's subscribers, a core's transition hooks —
// holds one or two entries, so the first two live inline and only a
// third spills to the heap: adding to a fresh list allocates nothing.
// The zero value is an empty list; a Listeners must not be copied
// after its first Add.
type Listeners[F any] struct {
	n      int
	inline [2]F
	spill  []F
}

// Add appends fn to the list.
func (l *Listeners[F]) Add(fn F) {
	if l.n < len(l.inline) {
		l.inline[l.n] = fn
	} else {
		l.spill = append(l.spill, fn)
	}
	l.n++
}

// Reset empties the list, keeping its spilled storage for the next
// Adds.
func (l *Listeners[F]) Reset() {
	clear(l.inline[:])
	clear(l.spill)
	l.n, l.spill = 0, l.spill[:0]
}

// Len returns the number of callbacks added.
func (l *Listeners[F]) Len() int { return l.n }

// At returns the i-th callback added.
func (l *Listeners[F]) At(i int) F {
	if i < len(l.inline) {
		return l.inline[i]
	}
	return l.spill[i-len(l.inline)]
}

// AndTree aggregates many input wires with AND gates into one output
// wire, mirroring how the paper combines neighbouring cores' InCC1 (and
// neighbouring IO controllers' InL0s) to save routing resources. Like a
// Signal it is embedded by value and must not be copied after Init.
type AndTree struct {
	out     Signal
	lows    int // number of inputs currently low
	inputFn func(bool)
}

// Init names the output and starts the tree with no inputs: the output
// is high (vacuous truth, same as a wired-AND with no pull-downs) until
// Add feeds it a low input. It returns t. The inputs' callback is bound
// once, so re-initializing a tree allocates nothing.
func (t *AndTree) Init(name sim.Name) *AndTree {
	t.out.Init(name, true)
	t.lows = 0
	if t.inputFn == nil {
		t.inputFn = t.onInput
	}
	return t
}

// Add feeds one more input wire into the tree; the output becomes the
// AND of every input's current level. Add the inputs before anything
// subscribes to the output, or a low input's edge reaches those
// subscribers.
func (t *AndTree) Add(in *Signal) {
	if !in.Level() {
		t.lows++
	}
	t.out.SetLevel(t.lows == 0)
	in.Subscribe(t.inputFn)
}

// onInput is every input's subscriber: one bound callback serves all of
// them, since an edge only moves the count of low inputs.
func (t *AndTree) onInput(level bool) {
	if level {
		t.lows--
	} else {
		t.lows++
	}
	t.out.SetLevel(t.lows == 0)
}

// Output returns the aggregated wire.
func (t *AndTree) Output() *Signal { return &t.out }
