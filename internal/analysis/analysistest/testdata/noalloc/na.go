// Package na is the noalloc-pass fixture: annotated hot paths must
// reject allocating constructs while the amortizing idioms the real
// hot paths use — field appends, capture-free literals, pooled
// warm-up branches under //apcvet:alloc, records and funcs handed to
// the engine as handlers — stay clean.
package na

type rec struct {
	buf  []byte
	vals []int
}

var global []int

//apcvet:noalloc
func hot(r *rec, n int) {
	r.vals = append(r.vals, n)                 // amortizing field append: clean
	global = append(global, n)                 // package-level slice: clean
	r.vals = append(r.vals[:0], r.vals[1:]...) // resliced field append: clean
	xs := []int{1, 2, 3}                       // want `slice literal allocates`
	m := map[string]int{"a": 1}                // want `map literal allocates`
	p := &rec{}                                // want `&composite literal escapes`
	b := make([]byte, n)                       // want `make allocates`
	q := new(rec)                              // want `new allocates`
	var local []int
	local = append(local, n)      // want `append to a non-preallocated \(locally-rooted\) slice`
	f := func() int { return n }  // want `func literal captures n`
	g := func() int { return 42 } // capture-free literal: clean
	helper(n)                     // want `call to example\.com/fixture/na\.helper, which is not annotated`
	audited(n)                    // annotated callee: clean
	_, _, _, _, _, _, _, _ = xs, m, p, b, q, local, f, g
}

func helper(n int) int { return n + 1 }

//apcvet:noalloc
func audited(n int) int { return n + 1 }

type boxer interface{ payload() int }

type fat struct{ a, b, c, d int64 }

func (f fat) payload() int { return int(f.a) }

type thin struct{ a int64 }

func (t *thin) payload() int { return int(t.a) }

//apcvet:noalloc
func boxes(f fat) boxer {
	return f // want `fat value boxed into interface`
}

//apcvet:noalloc
func pointerShaped(t *thin) boxer {
	return t // pointer payload fits the interface word: clean
}

//apcvet:noalloc
func stringCopy(bs []byte) string {
	return string(bs) // want `string conversion from a slice copies`
}

//apcvet:noalloc
func warmup(r *rec) []byte {
	if r.buf == nil {
		r.buf = make([]byte, 64) //apcvet:alloc pool warm-up: runs once per record lifetime, not per request
	}
	return r.buf
}

// stack is generic: its annotated methods are checked, and calls into
// them from any instantiation resolve to the same annotation.
type stack[T any] struct{ items []*T }

//apcvet:noalloc
func (s *stack[T]) push(x *T) {
	s.items = append(s.items, x) // amortizing field append: clean
}

//apcvet:noalloc
func (s *stack[T]) fresh() *T {
	return new(T) // want `new allocates`
}

func (s *stack[T]) unannotated() {}

//apcvet:noalloc
func useStack(s *stack[rec], r *rec) {
	s.push(r)       // annotated generic method: clean
	s.unannotated() // want `call to example\.com/fixture/na\.\(stack\)\.unannotated, which is not annotated`
}

// handler mirrors sim.Handler: the engine fires what it is handed.
type handler interface{ Fire() }

// fn mirrors sim.Func, adapting a plain func to a handler.
type fn func()

func (f fn) Fire() { f() }

// timer is a record's second event, a named type over the record.
type timer rec

func (t *timer) Fire() {}

func (r *rec) Fire() {}

// stamp is a handler held by value.
type stamp struct{ a, b int64 }

func (s stamp) Fire() {}

//apcvet:noalloc
func schedule(h handler) {}

//apcvet:noalloc
func handlers(r *rec, f func(), s stamp) {
	schedule(r)           // pointer record as its own handler: clean
	schedule((*timer)(r)) // pointer converted to a second handler type: clean
	schedule(fn(f))       // existing func adapted to a handler: clean
	var h handler = fn(f) // func-typed value in the interface word: clean
	schedule(h)
	schedule(s) // want `stamp value boxed into interface`
}
