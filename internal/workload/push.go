package workload

import (
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// PushSource is a Source whose arrivals are driven by the caller rather
// than by an arrival process: each Emit injects one request into the
// sink at the current engine time. It is the miss-stream seam of the
// service-graph layer (internal/cluster.Graph): a cache tier's misses
// call Emit on the backend tier's source, so backend arrivals are a
// *consequence* of upstream completions, not an independent stochastic
// process. The Spec still matters — Emit samples service times and
// memory accesses from it — only the Arrivals field is ignored (kept
// for rate bookkeeping and capacity derivation by the fleet).
//
// Start/Stop are window bookkeeping only: a PushSource has no pending
// arrival chain to start or cancel. Emission is legal at any time —
// misses discovered during a drain window still owe their backend work.
type PushSource struct {
	eng  *sim.Engine
	rng  *stats.RNG
	spec Spec
	sink func(*Request)

	nextID uint64
	pool   sim.Pool[Request]
}

// NewPushSource builds a caller-driven source; sink receives each
// emitted request at the Emit instant.
func NewPushSource(eng *sim.Engine, spec Spec, seed uint64, sink func(*Request)) *PushSource {
	if sink == nil {
		panic("workload: nil sink")
	}
	return &PushSource{eng: eng, rng: stats.NewRNG(seed), spec: spec, sink: sink}
}

// Spec returns the source's workload description.
func (p *PushSource) Spec() Spec { return p.spec }

// Reset rewinds the source to its initial state under a (possibly new)
// spec and seed, keeping its RNG and request pool, so a reused source
// emits without allocating from the first request on. Mirrors
// Generator.Reset; a push source draws no arrival gaps, so it has no
// arrival stream to rewind.
func (p *PushSource) Reset(spec Spec, seed uint64) {
	p.rng.Reseed(seed)
	p.spec = spec
	p.nextID = 0
}

// Start is part of the Source contract; a push source has nothing to
// schedule.
func (p *PushSource) Start(until sim.Time) {}

// Stop is part of the Source contract; a push source has nothing to
// cancel.
func (p *PushSource) Stop() {}

// Generated returns how many requests have been emitted.
//
//apcvet:noalloc
func (p *PushSource) Generated() uint64 { return p.nextID }

// Emit injects one request into the sink at the current engine time on
// the given client connection, sampling the service time and memory
// accesses from the spec, and returns the request's ID. The sink may
// resolve (and Release) the request synchronously — shed under
// overload, for instance — so callers must use the returned ID, never
// the request pointer.
//
//apcvet:noalloc
func (p *PushSource) Emit(conn int) uint64 {
	svc := p.spec.Service.Sample(p.rng)
	req, _ := p.pool.Get()
	id := p.nextID
	*req = Request{
		ID:          id,
		Arrival:     p.eng.Now(),
		Service:     sim.Duration(svc * float64(sim.Second)),
		Conn:        conn,
		MemAccesses: p.spec.MemAccesses,
	}
	p.nextID++
	p.sink(req)
	return id
}

// Release hands a request back for reuse by a later Emit, making
// steady-state emission allocation-free.
//
//apcvet:poolput
//apcvet:noalloc
func (p *PushSource) Release(req *Request) {
	p.pool.Put(req)
}
