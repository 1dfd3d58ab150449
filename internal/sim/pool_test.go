package sim

import (
	"math"
	"testing"
)

// rec is a pool record with a pointer field, like the simulator's.
type rec struct {
	id   int
	next *rec
}

// TestPoolFreshRecordsZeroed checks that a fresh record is zeroed even
// when records handed out before it were dirtied and recycled.
func TestPoolFreshRecordsZeroed(t *testing.T) {
	var p Pool[rec]
	var held []*rec
	for i := 0; i < 20; i++ {
		r, fresh := p.Get()
		if !fresh {
			t.Fatalf("get %d: recycled record from a pool nothing was put into", i)
		}
		if *r != (rec{}) {
			t.Fatalf("get %d: fresh record %+v, want zero", i, *r)
		}
		r.id, r.next = i+1, r
		held = append(held, r)
	}
	for _, r := range held {
		p.Put(r)
	}
	for range held {
		if _, fresh := p.Get(); fresh {
			t.Fatal("a fresh record while recycled ones were free")
		}
	}
	for i := 0; i < 40; i++ {
		r, fresh := p.Get()
		if !fresh || *r != (rec{}) {
			t.Fatalf("get %d past the recycled records: fresh=%v %+v, want a zeroed fresh record", i, fresh, *r)
		}
		r.id = -1
	}
}

// TestPoolReuseIsLIFO checks that Get hands back the most recently Put
// record first, and distinct records while fresh.
func TestPoolReuseIsLIFO(t *testing.T) {
	var p Pool[rec]
	a, _ := p.Get()
	b, _ := p.Get()
	c, _ := p.Get()
	if a == b || b == c || a == c {
		t.Fatal("fresh records alias")
	}
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for i, want := range []*rec{c, b, a} {
		got, fresh := p.Get()
		if fresh || got != want {
			t.Fatalf("get %d: got %p (fresh=%v), want recycled %p", i, got, fresh, want)
		}
	}
	d, fresh := p.Get()
	if !fresh || d == a || d == b || d == c {
		t.Fatal("after the recycled records, want a new fresh one")
	}
}

var allocPool Pool[rec]

// TestPoolFreshGetsAllocateLogarithmically checks that N fresh records
// cost at most ⌈log₂(N/8)⌉+1 allocations: the slabs double from 8.
func TestPoolFreshGetsAllocateLogarithmically(t *testing.T) {
	for _, n := range []int{1, 8, 9, 24, 25, 100, 1000, 5000} {
		bound := 1.0
		if n > minSlab {
			bound = math.Ceil(math.Log2(float64(n)/minSlab)) + 1
		}
		got := testing.AllocsPerRun(1, func() {
			allocPool = Pool[rec]{}
			for i := 0; i < n; i++ {
				allocPool.Get()
			}
		})
		if got > bound {
			t.Errorf("%d fresh gets: %v allocations, want at most %v", n, got, bound)
		}
	}
}

// TestPoolSteadyStateAllocFree checks that recycling a record allocates
// nothing once the free list has room.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	var p Pool[rec]
	r, _ := p.Get()
	p.Put(r)
	if avg := testing.AllocsPerRun(1000, func() {
		r, _ := p.Get()
		p.Put(r)
	}); avg != 0 {
		t.Errorf("steady-state get/put: %v allocs/op, want 0", avg)
	}
}
