package sim

// Pool is a LIFO free list of *T records for the simulator's pooled
// per-request state. Get pops the record Put most recently; when the
// list is empty it hands out the next element of a slab instead of
// allocating one record, and the slabs double in size (8, 16, 32, ...),
// so N fresh records cost at most ⌈log₂(N/8)⌉+1 allocations instead of
// N. Records never leave the pool's slabs, so a *T stays valid for the
// pool's lifetime.
//
// A record's events fire it as a Handler: one whose events run
// strictly one after another implements Fire on a stage field kept in
// the record, and one with timers that can be pending together gives
// each timer its own named type over the record. Either way scheduling
// converts a pointer into the slab, so a record costs no allocation
// beyond its slab share.
//
// The zero value is an empty pool. A Pool is not safe for concurrent
// use; like the engine it serves, it belongs to one simulation.
type Pool[T any] struct {
	free []*T
	slab []T // unissued remainder of the newest slab
	next int // size of the next slab
}

// minSlab is the size of a pool's first slab.
const minSlab = 8

// Get returns a record and whether it is fresh. A fresh record is
// zeroed and has never been handed out; a recycled one holds whatever
// its last user left in it, so the caller rebinds every field it reads.
//
//apcvet:noalloc
func (p *Pool[T]) Get() (*T, bool) {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r, false
	}
	if len(p.slab) == 0 {
		p.next = max(2*p.next, minSlab)
		p.slab = make([]T, p.next) //apcvet:alloc slab miss: the slab doubles, so it amortizes over every record it will ever carry
	}
	r := &p.slab[0]
	p.slab = p.slab[1:]
	return r, true
}

// Put returns r to the pool; the next Get hands it out again. The
// caller must not touch r afterwards.
//
//apcvet:poolput
//apcvet:noalloc
func (p *Pool[T]) Put(r *T) {
	p.free = append(p.free, r)
}

// Free returns how many records wait in the free list: the number of
// Gets that will hand out a recycled record before the pool turns to
// its slabs.
func (p *Pool[T]) Free() int { return len(p.free) }
