// Package server models the software stack of one latency-critical
// service instance running on the simulated SoC: NIC DMA over the PCIe
// link, kernel network processing, connection-pinned dispatch onto the
// application threads (one per core, as the paper's pinned Memcached
// deployment does), and end-to-end latency measurement from the client's
// perspective (client↔server network time included).
package server

import (
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// Config parameterizes the server software model.
type Config struct {
	// NetworkLatency is the client↔server round-trip component added to
	// every response (paper Sec. 7.3: ≈117 µs end-to-end network time).
	NetworkLatency sim.Duration
	// NICTransfer is the DMA time of one request/response on the PCIe
	// link.
	NICTransfer sim.Duration
	// KernelOverhead is per-request kernel time (interrupt, softirq,
	// socket) executed on the serving core in addition to the
	// application service time.
	KernelOverhead sim.Duration
	// BatchEpoch, when non-zero, delays request dispatch to aligned
	// epoch boundaries so cores activate and idle *together* — the
	// active-period synchronization the paper's related work (CARB,
	// µDPM, DynSleep) pursues and that Sec. 8 calls additive to APC.
	// Requests wait at most one epoch; latency grows by epoch/2 on
	// average in exchange for longer full-system-idle periods.
	BatchEpoch sim.Duration
	// TimerTickHz, when non-zero, arms a periodic per-core timer
	// interrupt (a non-tickless kernel): each tick wakes its core for
	// TickKernelTime. This is the background OS noise that erodes the
	// PC1A opportunity on real machines.
	TimerTickHz    float64
	TickKernelTime sim.Duration
	// Seed is read by nothing: the server draws nothing itself, and
	// the request stream's seed is the one given to cluster.New or to
	// a closed-loop client. It stays only because the benchmark's
	// public-API mirror (perfbench/traced.go) still sets it; it goes
	// with the next change to that mirror.
	Seed uint64
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		NetworkLatency: 117 * sim.Microsecond,
		NICTransfer:    300 * sim.Nanosecond,
		KernelOverhead: 5 * sim.Microsecond,
	}
}

// Server serves the requests submitted to it on one system. An
// open-loop workload reaches it through a cluster.Fleet (one member for
// a single machine), a closed-loop client through Submit directly.
type Server struct {
	sys *soc.System
	cfg Config

	// Latencies in seconds, client-observed.
	lat *stats.Histogram

	served   uint64
	inFlight int

	batch        []sim.Handler
	batchSpare   []sim.Handler
	batchArmed   bool
	batchFlushes uint64

	// pool recycles inflight records so steady-state serving does not
	// allocate per request.
	pool sim.Pool[inflight]
}

// inflight is the pooled per-request record. Its path through the
// machine is strictly sequential — NIC in, dispatch, core start, core
// done, NIC out — so the record itself is the sim.Handler of every
// step: each Fire runs the step named by stage and advances it. A
// record costs only its slab share, amortized over every request it
// later carries.
//
//apcvet:pooled
type inflight struct {
	s     *Server
	req   *workload.Request
	done  sim.Handler
	stage stage
}

// Fire runs the record's current step.
//
//apcvet:noalloc
func (r *inflight) Fire() { r.s.step(r) }

// stage is the step an inflight record's Fire runs next.
type stage uint8

const (
	inWire   stage = iota // NIC DMA in finished: dispatch
	execute               // dispatched: queue on the pinned core
	started               // the core began the request
	finished              // the core finished the request
	outWire               // NIC DMA out finished: respond
)

// newInflight takes a record from the pool and binds it to a request.
//
//apcvet:noalloc
func (s *Server) newInflight(req *workload.Request, done sim.Handler) *inflight {
	r, _ := s.pool.Get()
	r.s, r.req, r.done, r.stage = s, req, done, inWire
	return r
}

// step runs the record's current stage and advances it.
//
//apcvet:noalloc
func (s *Server) step(r *inflight) {
	switch r.stage {
	case inWire:
		s.sys.NICLink().EndTransaction()
		r.stage = execute
		s.dispatch(r)
	case execute:
		// 2. Kernel + application execution on the pinned core.
		r.stage = started
		core := s.sys.Cores[r.req.Conn%len(s.sys.Cores)]
		core.Enqueue(cpu.Work{
			Duration: r.req.Service + s.cfg.KernelOverhead,
			OnStart:  r,
			OnDone:   r,
		})
	case started:
		// 3. The request's DRAM traffic (dynamic energy; also wakes
		// CKE-parked channels).
		r.stage = finished
		s.sys.MemAccess(r.req.MemAccesses)
	case finished:
		// 4. NIC DMA out, then the client sees the response one network
		// latency after arrival processing started.
		r.stage = outWire
		nic := s.sys.NICLink()
		nic.StartTransaction()
		s.sys.Engine.Schedule(nic.ExitDelay()+s.cfg.NICTransfer, r)
	case outWire:
		s.sys.NICLink().EndTransaction()
		e2e := s.sys.Engine.Now() - r.req.Arrival + s.cfg.NetworkLatency
		s.lat.Add(e2e.Seconds())
		s.served++
		s.inFlight--
		done := r.done
		s.recycle(r)
		if done != nil {
			done.Fire()
		}
	}
}

// recycle unbinds a responded record and returns it to the pool; the
// caller must have copied anything it still needs out of it.
//
//apcvet:poolput
//apcvet:noalloc
func (s *Server) recycle(r *inflight) {
	r.req, r.done = nil, nil
	s.pool.Put(r)
}

// NewClosedLoop creates a server with no load of its own: whatever
// drives it calls Submit. A closed-loop client binds to it directly,
//
//	srv := server.NewClosedLoop(sys, cfg)
//	cl := workload.SysbenchOLTP(sys.Engine, 16, 1e-3, 1, srv.Submit)
//	cl.Start()
//	sys.Engine.Run(...)
//
// and a cluster.Fleet builds one per member and routes its open-loop
// arrivals into it.
func NewClosedLoop(sys *soc.System, cfg Config) *Server {
	return new(Server).Init(sys, cfg)
}

// Init builds the server in place on sys, exactly as NewClosedLoop
// does, and returns s. Rebuilding a server rewinds it: it keeps its
// latency histogram (emptied), its request-record pool and its batch
// buffers, so a reused server serves without regrowing them. Its old
// machine must be finished with, as for soc.System.Init.
func (s *Server) Init(sys *soc.System, cfg Config) *Server {
	lat := s.lat
	if lat == nil {
		lat = stats.NewLatencyHistogram()
	} else {
		lat.Reset()
	}
	clear(s.batch)
	clear(s.batchSpare)
	*s = Server{
		sys:        sys,
		cfg:        cfg,
		lat:        lat,
		batch:      s.batch[:0],
		batchSpare: s.batchSpare[:0],
		pool:       s.pool,
	}
	if cfg.TimerTickHz > 0 {
		s.armTicks()
	}
	return s
}

// armTicks schedules staggered periodic timer interrupts on every core.
func (s *Server) armTicks() {
	period := sim.Duration(float64(sim.Second) / s.cfg.TimerTickHz)
	for i, c := range s.sys.Cores {
		c := c
		var tick sim.Func
		tick = func() {
			c.WakeInterrupt(s.cfg.TickKernelTime)
			s.sys.Engine.Schedule(period, tick)
		}
		// Stagger cores across the period so ticks do not align.
		offset := period * sim.Duration(i) / sim.Duration(len(s.sys.Cores))
		s.sys.Engine.Schedule(offset+1, tick)
	}
}

// DrainCap bounds how much extra virtual time the cluster layer's
// open-loop drain loops (Fleet.Run, Graph.Run) spend draining
// stragglers after their source stops. It exists only to bound
// pathological runs (a backlog that cannot clear); anything still in
// flight when it trips is reported as dropped instead of silently
// abandoned.
const DrainCap = 10 * sim.Second

// Latencies returns the client-observed latency histogram (seconds).
func (s *Server) Latencies() *stats.Histogram { return s.lat }

// InFlight returns the number of requests currently inside the machine
// (submitted but not yet responded). Load-balancing policies and drain
// loops read it.
func (s *Server) InFlight() int { return s.inFlight }

// Served returns the number of completed requests.
func (s *Server) Served() uint64 { return s.served }

// System returns the underlying system.
func (s *Server) System() *soc.System { return s.sys }

// Submit serves one request and fires done (if non-nil) when the
// response leaves the NIC — the hook closed-loop clients and the fleet
// balancer use.
//
//apcvet:noalloc
func (s *Server) Submit(req *workload.Request, done sim.Handler) {
	s.inFlight++
	r := s.newInflight(req, done)
	nic := s.sys.NICLink()

	// 1. NIC DMA in: the PCIe link wakes if parked (its wake event is
	// also what triggers the PC1A exit flow for network traffic).
	nic.StartTransaction()
	s.sys.Engine.Schedule(nic.ExitDelay()+s.cfg.NICTransfer, r)
}

// dispatch fires h now, or holds it for the next epoch boundary when
// batching is enabled.
//
//apcvet:noalloc
func (s *Server) dispatch(h sim.Handler) {
	if s.cfg.BatchEpoch == 0 {
		h.Fire()
		return
	}
	s.batch = append(s.batch, h)
	if s.batchArmed {
		return
	}
	s.batchArmed = true
	eng := s.sys.Engine
	next := (eng.Now()/s.cfg.BatchEpoch + 1) * s.cfg.BatchEpoch
	eng.At(next, (*batchTimer)(s))
}

// batchTimer is an epoch boundary's event: the server seen as a
// sim.Handler.
type batchTimer Server

// Fire releases the held batch.
//
//apcvet:noalloc
func (t *batchTimer) Fire() {
	s := (*Server)(t)
	s.batchArmed = false
	s.batchFlushes++
	// Swap buffers rather than discarding: a dispatch during the flush
	// must land in a fresh batch, but the drained buffer can be
	// recycled for it.
	pending := s.batch
	s.batch = s.batchSpare[:0]
	for i, h := range pending {
		pending[i] = nil
		h.Fire()
	}
	s.batchSpare = pending[:0]
}

// BatchFlushes returns how many epoch releases occurred.
func (s *Server) BatchFlushes() uint64 { return s.batchFlushes }
