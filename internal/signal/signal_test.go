package signal

import (
	"testing"
	"testing/quick"

	"agilepkgc/internal/sim"
)

func newSignal(name string, initial bool) *Signal {
	return new(Signal).Init(sim.Named(name), initial)
}

func newAndTree(name string, inputs ...*Signal) *AndTree {
	t := new(AndTree).Init(sim.Named(name))
	for _, in := range inputs {
		t.Add(in)
	}
	return t
}

func TestLevelAndName(t *testing.T) {
	s := newSignal("InCC1", false)
	if s.Name() != "InCC1" || s.Level() {
		t.Fatal("initial state wrong")
	}
	s.Set()
	if !s.Level() {
		t.Fatal("Set failed")
	}
	s.Unset()
	if s.Level() {
		t.Fatal("Unset failed")
	}
}

func TestSubscribeEdgesOnly(t *testing.T) {
	s := newSignal("x", false)
	var edges []bool
	s.Subscribe(func(l bool) { edges = append(edges, l) })
	s.Set()
	s.Set() // no edge
	s.Unset()
	s.Unset() // no edge
	s.SetLevel(true)
	if len(edges) != 3 || !edges[0] || edges[1] || !edges[2] {
		t.Fatalf("edges = %v, want [true false true]", edges)
	}
}

func TestMultipleSubscribersInOrder(t *testing.T) {
	// 1 and 2 subscribers stay inline; 3 and 5 spill past the inline
	// capacity, and the order must not notice the boundary.
	for _, n := range []int{1, 2, 3, 5} {
		s := newSignal("x", false)
		var order []int
		for i := 1; i <= n; i++ {
			s.Subscribe(func(bool) { order = append(order, i) })
		}
		s.Set()
		s.Unset()
		if len(order) != 2*n {
			t.Fatalf("%d subscribers: %d calls over two edges, want %d", n, len(order), 2*n)
		}
		for i, got := range order {
			if want := i%n + 1; got != want {
				t.Fatalf("%d subscribers: order = %v", n, order)
			}
		}
	}
}

func TestSubscribeDuringNotification(t *testing.T) {
	// n subscribers are present before the first edge; the last of them
	// subscribes one more during that edge. With n = 2 the late one is
	// the first to spill, with n = 1 it fills the inline storage, and
	// with n = 3 and 5 it joins the spill.
	for _, n := range []int{1, 2, 3, 5} {
		s := newSignal("x", false)
		calls := make([]int, n)
		lateCalls := 0
		for i := 0; i < n-1; i++ {
			s.Subscribe(func(bool) { calls[i]++ })
		}
		s.Subscribe(func(bool) {
			calls[n-1]++
			if calls[n-1] == 1 {
				s.Subscribe(func(bool) { lateCalls++ })
			}
		})
		s.Set()
		if lateCalls != 0 {
			t.Fatalf("%d subscribers: late subscriber saw the edge that created it", n)
		}
		s.Unset()
		if lateCalls != 1 {
			t.Fatalf("%d subscribers: late subscriber saw %d later edges, want 1", n, lateCalls)
		}
		for i, c := range calls {
			if c != 2 {
				t.Fatalf("%d subscribers: subscriber %d ran %d times over two edges, want 2", n, i, c)
			}
		}
	}
}

func TestNilSubscriberPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil subscriber should panic")
		}
	}()
	newSignal("x", false).Subscribe(nil)
}

func TestAndTreeBasic(t *testing.T) {
	a := newSignal("a", true)
	b := newSignal("b", true)
	c := newSignal("c", false)
	tree := newAndTree("all", a, b, c)
	if tree.Output().Level() {
		t.Fatal("output should be low with one low input")
	}
	c.Set()
	if !tree.Output().Level() {
		t.Fatal("output should rise when all inputs high")
	}
	a.Unset()
	if tree.Output().Level() {
		t.Fatal("output should fall when any input falls")
	}
}

func TestAndTreeAllHighInitially(t *testing.T) {
	a := newSignal("a", true)
	b := newSignal("b", true)
	tree := newAndTree("all", a, b)
	if !tree.Output().Level() {
		t.Fatal("output should start high")
	}
}

func TestAndTreeEmpty(t *testing.T) {
	tree := newAndTree("none")
	if !tree.Output().Level() {
		t.Fatal("empty AND should be high")
	}
}

func TestAndTreeEdgeNotifications(t *testing.T) {
	// The APMU subscribes to the InCC1 tree output; it must see exactly
	// one rising edge when the last core goes idle and one falling edge
	// when the first wakes.
	cores := make([]*Signal, 10)
	for i := range cores {
		cores[i] = newSignal("core", false)
	}
	tree := newAndTree("InCC1", cores...)
	rises, falls := 0, 0
	tree.Output().Subscribe(func(l bool) {
		if l {
			rises++
		} else {
			falls++
		}
	})
	for _, c := range cores {
		c.Set()
	}
	if rises != 1 || falls != 0 {
		t.Fatalf("after all idle: rises=%d falls=%d", rises, falls)
	}
	cores[3].Unset()
	cores[7].Unset()
	if falls != 1 {
		t.Fatalf("falls=%d, want exactly 1", falls)
	}
	cores[3].Set()
	cores[7].Set()
	if rises != 2 {
		t.Fatalf("rises=%d, want 2", rises)
	}
}

// Property: the tree output always equals the AND of the input levels,
// under any mutation sequence.
func TestPropertyAndTreeInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		n := 8
		ins := make([]*Signal, n)
		for i := range ins {
			ins[i] = newSignal("in", i%2 == 0)
		}
		tree := newAndTree("out", ins...)
		check := func() bool {
			want := true
			for _, in := range ins {
				want = want && in.Level()
			}
			return tree.Output().Level() == want
		}
		if !check() {
			return false
		}
		for _, op := range ops {
			idx := int(op) % n
			if op&0x80 != 0 {
				ins[idx].Set()
			} else {
				ins[idx].Unset()
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
