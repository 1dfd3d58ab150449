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

	batch        []func()
	batchSpare   []func()
	batchArmed   bool
	batchFlushes uint64
	batchFn      func()

	// freeList recycles inflight records so steady-state serving does
	// not allocate per request.
	freeList []*inflight
}

// inflight is the pooled per-request record. All five callbacks on a
// request's path through the machine (NIC in, dispatch, core start, core
// done, NIC out) are created once when the record is first allocated and
// reused for every request the record later carries, so the steady-state
// serve path schedules only preallocated closures.
type inflight struct {
	s    *Server
	req  *workload.Request
	done func()

	inWireFn  func()
	execFn    func()
	startFn   func()
	onDoneFn  func()
	outWireFn func()
}

// newInflight takes a record off the free list (or builds one, creating
// its callbacks) and binds it to a request.
func (s *Server) newInflight(req *workload.Request, done func()) *inflight {
	var r *inflight
	if n := len(s.freeList); n > 0 {
		r = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
	} else {
		r = &inflight{s: s}
		r.inWireFn = func() {
			r.s.sys.NICLink().EndTransaction()
			r.s.dispatch(r.execFn)
		}
		r.execFn = func() { r.s.execute(r) }
		r.startFn = func() {
			// 3. The request's DRAM traffic (dynamic energy; also wakes
			// CKE-parked channels).
			r.s.sys.MemAccess(r.req.MemAccesses)
		}
		r.onDoneFn = func() {
			// 4. NIC DMA out, then the client sees the response one
			// network latency after arrival processing started.
			nic := r.s.sys.NICLink()
			nic.StartTransaction()
			outWire := nic.ExitDelay() + r.s.cfg.NICTransfer
			r.s.sys.Engine.Schedule(outWire, r.outWireFn)
		}
		r.outWireFn = func() {
			s := r.s
			s.sys.NICLink().EndTransaction()
			e2e := s.sys.Engine.Now() - r.req.Arrival + s.cfg.NetworkLatency
			s.lat.Add(e2e.Seconds())
			s.served++
			s.inFlight--
			done := r.done
			r.req, r.done = nil, nil
			s.freeList = append(s.freeList, r)
			if done != nil {
				done()
			}
		}
	}
	r.req, r.done = req, done
	return r
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
	s := &Server{
		sys: sys,
		cfg: cfg,
		lat: stats.NewLatencyHistogram(),
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
		var tick func()
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

// Submit serves one request and calls done (if non-nil) when the
// response leaves the NIC — the hook closed-loop clients and the fleet
// balancer use.
func (s *Server) Submit(req *workload.Request, done func()) {
	s.inFlight++
	r := s.newInflight(req, done)
	nic := s.sys.NICLink()

	// 1. NIC DMA in: the PCIe link wakes if parked (its wake event is
	// also what triggers the PC1A exit flow for network traffic).
	nic.StartTransaction()
	inWire := nic.ExitDelay() + s.cfg.NICTransfer
	s.sys.Engine.Schedule(inWire, r.inWireFn)
}

// dispatch runs fn now, or holds it for the next epoch boundary when
// batching is enabled.
func (s *Server) dispatch(fn func()) {
	if s.cfg.BatchEpoch == 0 {
		fn()
		return
	}
	s.batch = append(s.batch, fn)
	if s.batchArmed {
		return
	}
	s.batchArmed = true
	eng := s.sys.Engine
	next := (eng.Now()/s.cfg.BatchEpoch + 1) * s.cfg.BatchEpoch
	if s.batchFn == nil {
		s.batchFn = func() {
			s.batchArmed = false
			s.batchFlushes++
			// Swap buffers rather than discarding: a dispatch during the
			// flush must land in a fresh batch, but the drained buffer can
			// be recycled for it.
			pending := s.batch
			s.batch = s.batchSpare[:0]
			for i, f := range pending {
				pending[i] = nil
				f()
			}
			s.batchSpare = pending[:0]
		}
	}
	eng.At(next, s.batchFn)
}

// BatchFlushes returns how many epoch releases occurred.
func (s *Server) BatchFlushes() uint64 { return s.batchFlushes }

// execute runs the request on its pinned core and sends the response.
func (s *Server) execute(r *inflight) {
	// 2. Kernel + application execution on the pinned core.
	core := s.sys.Cores[r.req.Conn%len(s.sys.Cores)]
	core.Enqueue(cpu.Work{
		Duration: r.req.Service + s.cfg.KernelOverhead,
		OnStart:  r.startFn,
		OnDone:   r.onDoneFn,
	})
}
