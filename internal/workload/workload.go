// Package workload generates the request streams of the paper's three
// latency-critical services — Memcached (mutilate reproducing Facebook's
// ETC mix), Kafka (event streaming), and MySQL (sysbench OLTP) — as
// open-loop stochastic arrival processes with calibrated service-time
// distributions.
//
// The evaluation depends on the *busy/idle statistics* these streams
// induce (per-request core occupancy, burstiness, utilization at a given
// QPS), not on protocol bytes, so that is what the models target. See
// DESIGN.md ("Substitutions").
package workload

import (
	"fmt"
	"strconv"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// Request is one client request arriving at the server.
//
//apcvet:pooled
type Request struct {
	// ID is a monotonically increasing sequence number.
	ID uint64
	// Arrival is when the request hit the NIC.
	Arrival sim.Time
	// Service is the application service time at nominal frequency.
	Service sim.Duration
	// Conn identifies the client connection; servers pin connections to
	// cores, so it determines dispatch.
	Conn int
	// MemAccesses is how many DRAM transactions the request issues.
	MemAccesses int
}

// Spec describes one workload: its arrival process, service-time
// distribution and per-request side effects. Every field is an
// immutable law, so a Spec is a plain value: any number of sources may
// share one, and each keeps its own stream state.
type Spec struct {
	// Name for reports.
	Name string
	// Arrivals generates inter-arrival gaps (seconds).
	Arrivals stats.ArrivalProcess
	// Service samples service times (seconds, at nominal frequency).
	Service stats.Dist
	// Connections is the number of client connections requests are
	// spread over.
	Connections int
	// MemAccesses per request (DRAM transactions).
	MemAccesses int
}

// MeanQPS returns the spec's long-run arrival rate.
func (s Spec) MeanQPS() float64 { return s.Arrivals.Rate() }

// ExpectedUtilization returns λ·E[S]/k for a k-core system — the
// processor load this spec induces, ignoring kernel overhead.
func (s Spec) ExpectedUtilization(cores int) float64 {
	return s.Arrivals.Rate() * s.Service.Mean() / float64(cores)
}

// String summarizes the spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s: %v, service %v, %d conns, %d mem-acc/req",
		s.Name, s.Arrivals, s.Service, s.Connections, s.MemAccesses)
}

// formatG renders v as fmt's %g does. Spec constructors name their
// specs with it and strconv rather than fmt.Sprintf: fmt's printers
// come from a sync.Pool, which every GC empties, so a constructor that
// used them would allocate a GC-dependent number of objects.
func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// The services' service-time laws, built and boxed as stats.Dist once:
// a law is immutable, so every spec (and every source drawing from one)
// shares it.
var (
	// memcachedService is Facebook's ETC mix: dominated by small GETs
	// with a small population of much larger requests; service times
	// average ~16 µs on the 2.2 GHz SKX cores.
	memcachedService stats.Dist = stats.Mixture{
		Components: []stats.Dist{
			stats.NewLogNormal(12e-6, 0.45), // GET hits
			stats.NewLogNormal(50e-6, 0.50), // multiget/SET
		},
		Weights: []float64{0.9, 0.1},
	}
	// kafkaService is Kafka's batch handling: fewer, longer requests.
	kafkaService stats.Dist = stats.NewLogNormal(120e-6, 0.6)
	// mysqlService is the sysbench OLTP mix: short point reads with
	// heavier read-write transactions.
	mysqlService stats.Dist = stats.Mixture{
		Components: []stats.Dist{
			stats.NewLogNormal(60e-6, 0.5),  // point selects
			stats.NewLogNormal(300e-6, 0.6), // read-write txns
		},
		Weights: []float64{0.7, 0.3},
	}
)

// Memcached returns the mutilate/ETC-style key-value workload at the
// given request rate (service law: memcachedService).
func Memcached(qps float64) Spec {
	return Spec{
		Name:        "memcached-" + formatG(qps) + "qps",
		Arrivals:    stats.Poisson{RateV: qps},
		Service:     memcachedService,
		Connections: 200,
		MemAccesses: 4,
	}
}

// MemcachedPerRequestCoreTime is the mean core occupancy of one
// Memcached request including kernel overhead (service ≈16 µs + ≈5 µs
// softirq/syscall path) — used to convert between QPS and utilization.
const MemcachedPerRequestCoreTime = 21e-6

// MemcachedAtUtil returns the Memcached spec whose QPS induces the given
// processor utilization on a system with the given core count.
func MemcachedAtUtil(util float64, cores int) Spec {
	qps := util * float64(cores) / MemcachedPerRequestCoreTime
	return Memcached(qps)
}

// MemcachedBursty is Memcached with a two-state MMPP arrival process —
// the bursty on/off load shape user-facing traffic exhibits.
func MemcachedBursty(qps, burstiness float64) Spec {
	s := Memcached(qps)
	s.Name = "memcached-bursty-" + formatG(qps) + "qps"
	s.Arrivals = stats.NewMMPP2(qps, burstiness, 2e-3)
	return s
}

// Kafka returns the event-streaming workload at the given processor load
// fraction (paper Fig. 9 uses 8% and 16%) for a system with the given
// core count. Kafka moves batches: fewer, longer requests with bursty
// producer/consumer cycles.
func Kafka(load float64, cores int) Spec {
	qps := load * float64(cores) / kafkaService.Mean()
	return Spec{
		Name:        "kafka-" + strconv.Itoa(int(load*100+0.5)) + "%",
		Arrivals:    stats.NewMMPP2(qps, 4, 5e-3),
		Service:     kafkaService,
		Connections: 48,
		MemAccesses: 12,
	}
}

// MySQL returns the sysbench-OLTP workload at the given processor load
// fraction (paper Fig. 8 uses 8%, 16% and 42%). OLTP transactions mix
// short point reads with heavier read-write transactions, and the
// arrival stream is strongly bursty: sysbench threads issue the queries
// of one transaction back-to-back and then pause, which correlates
// activity across cores — the reason the paper still measures 20%
// all-idle time at 42% average load.
func MySQL(load float64, cores int) Spec {
	qps := load * float64(cores) / mysqlService.Mean()
	// Burstiness grows with load: more sysbench threads means more
	// correlated transaction trains. Near-Poisson at light load, heavily
	// clustered at 42% — which is how the paper can still measure ~20%
	// all-idle time at 42% average utilization.
	burstiness := 1 + 20*load
	return Spec{
		Name:        "mysql-" + strconv.Itoa(int(load*100+0.5)) + "%",
		Arrivals:    stats.NewMMPP2(qps, burstiness, 5e-3),
		Service:     mysqlService,
		Connections: 64,
		MemAccesses: 10,
	}
}

// Source is anything that can drive a request stream into a sink under
// the engine's window protocol: Start(until) begins (or restarts)
// emission up to the given stop time, Stop cancels the pending arrival,
// Generated counts emissions, and Release hands requests back for reuse
// so steady-state emission stays allocation-free. Generator is the
// synthetic implementation; trace replay (internal/workload/replay)
// provides a recorded one. Restart semantics are part of the contract:
// a second Start replaces any pending arrival, so exactly one arrival
// chain is ever live.
type Source interface {
	Start(until sim.Time)
	Stop()
	Generated() uint64
	Release(*Request)
}

// Generator drives a Spec against a sink on the simulation engine.
type Generator struct {
	eng  *sim.Engine
	rng  *stats.RNG
	spec Spec
	sink func(*Request)
	// arr is this generator's position in the spec's arrival law.
	arr stats.ArrivalStream

	nextID  uint64
	stopAt  sim.Time
	pending sim.Event

	// pool holds requests handed back via Release for reuse by later
	// arrivals.
	pool sim.Pool[Request]
}

// NewGenerator builds a generator; sink receives each request at its
// arrival instant.
func NewGenerator(eng *sim.Engine, spec Spec, seed uint64, sink func(*Request)) *Generator {
	if sink == nil {
		panic("workload: nil sink")
	}
	return &Generator{eng: eng, rng: stats.NewRNG(seed), spec: spec, sink: sink}
}

// arrivalTimer is the arrival chain's event: the generator seen as a
// sim.Handler, so the chain schedules without allocating.
type arrivalTimer Generator

// Fire emits the arrival unless the window is over, then schedules the
// next.
//
//apcvet:noalloc
func (t *arrivalTimer) Fire() {
	g := (*Generator)(t)
	g.pending = sim.Event{}
	if g.eng.Now() >= g.stopAt {
		return
	}
	g.emit()
	g.scheduleNext()
}

// Spec returns the generator's workload description.
func (g *Generator) Spec() Spec { return g.spec }

// Reset rewinds the generator to its initial state under a (possibly
// new) spec and seed, keeping its RNG and request pool, so a reused
// generator emits without allocating from the first arrival on. The caller must have reset (or drained) the engine first:
// any pending arrival chain died with it, so Reset just forgets the
// handle. A reset generator is indistinguishable from
// NewGenerator(eng, spec, seed, sink) on the same engine.
func (g *Generator) Reset(spec Spec, seed uint64) {
	g.rng.Reseed(seed)
	g.spec = spec
	g.arr = stats.ArrivalStream{}
	g.nextID = 0
	g.stopAt = 0
	g.pending = sim.Event{}
}

// Generated returns how many requests have been emitted.
func (g *Generator) Generated() uint64 { return g.nextID }

// Start begins emitting requests until the given stop time. Restarting
// (e.g. a measurement window after a warmup window) replaces any pending
// arrival, so exactly one arrival chain is ever live.
func (g *Generator) Start(until sim.Time) {
	g.pending.Cancel()
	g.stopAt = until
	g.scheduleNext()
}

// Stop cancels the pending arrival, ending generation immediately.
func (g *Generator) Stop() {
	g.pending.Cancel()
	g.pending = sim.Event{}
}

//apcvet:noalloc
func (g *Generator) scheduleNext() {
	gap := g.spec.Arrivals.NextGap(g.rng, &g.arr)
	d := sim.Duration(gap * float64(sim.Second))
	if d < 0 {
		d = 0
	}
	g.pending = g.eng.Schedule(d, (*arrivalTimer)(g))
}

//apcvet:noalloc
func (g *Generator) emit() {
	svc := g.spec.Service.Sample(g.rng)
	req, _ := g.pool.Get()
	*req = Request{
		ID:          g.nextID,
		Arrival:     g.eng.Now(),
		Service:     sim.Duration(svc * float64(sim.Second)),
		Conn:        int(g.rng.Uint64() % uint64(g.spec.Connections)),
		MemAccesses: g.spec.MemAccesses,
	}
	g.nextID++
	g.sink(req)
}

// Release hands a request back to the generator for reuse by a later
// arrival, making steady-state generation allocation-free. Only the sink
// may call it, once per request, after nothing references the request
// anymore; sinks that retain requests simply never release them and the
// generator falls back to allocating.
//
//apcvet:poolput
//apcvet:noalloc
func (g *Generator) Release(req *Request) {
	g.pool.Put(req)
}
