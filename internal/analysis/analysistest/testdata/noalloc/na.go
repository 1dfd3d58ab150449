// Package na is the noalloc-pass fixture: annotated hot paths must not
// heap-allocate by the compiler's escape analysis, must not append to
// locally-rooted slices, and must call only annotated functions of the
// annotation domain. Values the compiler keeps on the stack, constant
// panic messages, amortizing field appends, audited warm-up branches
// under //apcvet:alloc (also where they are inlined into a caller) and
// records or funcs handed to the engine as handlers stay clean.
package na

import "fmt"

type rec struct {
	buf  []byte
	vals []int
}

var (
	global []int
	sink   *rec
)

//apcvet:noalloc
func hot(r *rec, n int) {
	r.vals = append(r.vals, n)                 // amortizing field append: clean
	global = append(global, n)                 // package-level slice: clean
	r.vals = append(r.vals[:0], r.vals[1:]...) // resliced field append: clean
	r.buf = make([]byte, n)                    // want `make\(\[\]byte, n\) escapes to heap`
	sink = &rec{}                              // want `&rec{} escapes to heap`
	var local []int
	local = append(local, n) // want `append to a non-preallocated \(locally-rooted\) slice`
	helper(n)                // want `call to agilepkgc/internal/analysis/analysistest/testdata/noalloc\.helper, which is not annotated`
	audited(n)               // annotated callee: clean
	_ = local
}

//apcvet:noalloc
func stackOnly(n int) int {
	xs := make([]int, 4)         // stays on the stack: clean
	ys := []int{1, 2, 3}         // stays on the stack: clean
	p := &rec{}                  // does not escape: clean
	f := func() int { return n } // the closure does not escape: clean
	return xs[0] + ys[0] + len(p.vals) + f()
}

func helper(n int) int { return n + 1 }

//apcvet:noalloc
func audited(n int) int { return n + 1 }

//apcvet:noalloc
func check(n int, err error) int {
	if n < 0 {
		panic("na: negative count") // constant message: clean
	}
	if err != nil {
		panic(fmt.Sprintf("na: %v", err)) // want `fmt\.Sprintf\("na: %v", \.\.\. argument\.\.\.\) escapes to heap`
	}
	if n > 1<<20 {
		panic(fmt.Sprintf("na: count %v", err)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	return n
}

type boxer interface{ payload() int }

type fat struct{ a, b, c, d int64 }

func (f fat) payload() int { return int(f.a) }

type thin struct{ a int64 }

func (t *thin) payload() int { return int(t.a) }

//apcvet:noalloc
func boxes(f fat) boxer {
	return f // want `f escapes to heap`
}

//apcvet:noalloc
func pointerPayload(t *thin) boxer {
	return t // pointer payload fits the interface word: clean
}

//apcvet:noalloc
func stringCopy(bs []byte) string {
	return string(bs) // want `string\(bs\) escapes to heap`
}

//apcvet:noalloc
func warmup(r *rec) []byte {
	if r.buf == nil {
		r.buf = make([]byte, 64) //apcvet:alloc pool warm-up: runs once per record lifetime, not per request
	}
	return r.buf
}

//apcvet:noalloc
func useWarmup(r *rec) int {
	return len(warmup(r)) // inlined audited callee: its escape is warmup's, clean here
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
	return new(T) // want `escapes to heap`
}

func (s *stack[T]) unannotated() {}

//apcvet:noalloc
func useStack(s *stack[rec], r *rec) {
	s.push(r)       // annotated generic method: clean
	s.unannotated() // want `call to agilepkgc/internal/analysis/analysistest/testdata/noalloc\.\(stack\)\.unannotated, which is not annotated`
}

// handler mirrors sim.Handler: the engine keeps what it is handed.
type handler interface{ Fire() }

var queued handler

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
func schedule(h handler) { queued = h }

//apcvet:noalloc
func handlers(r *rec, f func(), s stamp) {
	schedule(r)           // pointer record as its own handler: clean
	schedule((*timer)(r)) // pointer converted to a second handler type: clean
	schedule(fn(f))       // existing func adapted to a handler: clean
	var h handler = fn(f) // func-typed value in the interface word: clean
	schedule(h)
	schedule(s) // want `s escapes to heap`
}
