// Package cluster simulates a fleet of servers behind one load
// balancer — the layer above internal/server that makes datacenter-level
// questions (watts per QPS across N machines, does packing load onto few
// servers deepen PC1A residency on the drained ones?) expressible.
//
// A Fleet is N independent soc.System + server.Server instances driven
// from ONE deterministic sim.Engine: every NIC DMA, C-state transition
// and response on every machine is an event in a single (time, sequence)
// order, so a fleet run is exactly as reproducible as a single-machine
// run — same seed, bit-identical traces. The aggregate request stream is
// produced by one workload.Source — the synthetic workload.Generator
// seeded from the caller's seed by default, or a custom source (e.g.
// trace replay, Config.NewSource) — and a routing policy assigns each
// arrival to a member:
//
//	round_robin      — arrival i goes to server i mod N.
//	least_loaded     — fewest in-flight requests; ties break to the
//	                   lowest server index (deterministic).
//	power_aware      — pack onto the lowest-indexed server whose
//	                   in-flight count is below a per-server cap derived
//	                   from the p99 latency target, so high-indexed
//	                   servers stay idle and sink into deep package
//	                   C-states. When every server is at its cap the
//	                   policy degrades to least_loaded rather than
//	                   queueing at the balancer.
//	rack_affinity    — pack onto the fewest racks, then the fewest
//	                   servers within the chosen rack, with each server's
//	                   natural capacity (one in-flight request per core)
//	                   as the bin size; all ties break by index.
//	rack_power_aware — power_aware's derived in-flight cap applied
//	                   rack-first: stay on already-active racks while any
//	                   of their servers has cap headroom, and only then
//	                   wake a new rack.
//
// Fleets are optionally shaped into a Topology of racks: rack 0 hosts
// the balancer, and every request routed into another rack pays a
// configurable top-of-rack hop (Config.TorLatency) in each direction —
// the inbound hop as a scheduled transit event on the shared engine, the
// return hop folded into the member's recorded network round trip. A
// flat topology (one rack, zero ToR latency) schedules no extra events,
// so it reproduces the rackless fleet byte for byte (the scenario
// layer's TestRackFlatParity locks this).
//
// Each member keeps its own power meter; fleet power is the sum of the
// per-server meters' energy integrals over the measured window, and each
// rack additionally aggregates its members into a rack-zone integral
// (RackStats) — the pool/zone granularity production power tooling
// manages. A one-member round_robin fleet is the single machine: every
// figure point (experiments.runPoint) and every single-server scenario
// runs on one, so Run is the simulator's only open-loop
// window-then-drain loop.
package cluster

import (
	"fmt"
	"math"
	"slices"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// Policy selects how the load balancer assigns arrivals to servers.
type Policy int

const (
	// RoundRobin cycles arrivals across servers in index order.
	RoundRobin Policy = iota
	// LeastLoaded routes to the server with the fewest in-flight
	// requests (lowest index wins ties).
	LeastLoaded
	// PowerAware packs arrivals onto the fewest servers that keep p99
	// latency under Config.P99Target, leaving the rest idle.
	PowerAware
	// RackAffinity packs arrivals onto the fewest racks, then the fewest
	// servers, using one-in-flight-per-core as each server's capacity.
	RackAffinity
	// RackPowerAware applies PowerAware's derived in-flight cap
	// rack-first: already-active racks absorb load before a new rack
	// wakes.
	RackPowerAware
)

// policyNames holds each policy's scenario-file spelling, indexed by
// Policy: the one list of known policies.
var policyNames = [...]string{"round_robin", "least_loaded", "power_aware", "rack_affinity", "rack_power_aware"}

// known reports whether p is one of the declared policies.
func (p Policy) known() bool { return p >= 0 && int(p) < len(policyNames) }

// String returns the policy's scenario-file spelling.
func (p Policy) String() string {
	if !p.known() {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Packs reports whether the policy packs servers against
// Config.P99Target (power_aware, rack_power_aware): only these need the
// target, and only on these can a drain hold or feedback epoch act.
func (p Policy) Packs() bool { return p == PowerAware || p == RackPowerAware }

// ParsePolicy maps a scenario-file spelling to its Policy.
func ParsePolicy(s string) (Policy, error) {
	if i := slices.Index(policyNames[:], s); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("cluster: unknown policy %q (want one of %v)", s, PolicyNames())
}

// PolicyNames returns the supported policy spellings, sorted.
func PolicyNames() []string { return slices.Sorted(slices.Values(policyNames[:])) }

// Topology shapes the fleet into racks: Racks × ServersPerRack members,
// rack r holding the contiguous server-index block
// [r·ServersPerRack, (r+1)·ServersPerRack). Rack 0 is the local rack —
// the balancer hangs off its top-of-rack switch — so only traffic into
// racks 1..Racks-1 pays Config.TorLatency. The zero value means a flat
// fleet: one rack holding every member.
type Topology struct {
	Racks          int `json:"racks"`
	ServersPerRack int `json:"servers_per_rack"`
}

// Flat returns the single-rack topology holding n servers.
func Flat(n int) Topology { return Topology{Racks: 1, ServersPerRack: n} }

// Servers returns the member count the topology shapes.
func (t Topology) Servers() int { return t.Racks * t.ServersPerRack }

// RackOf returns the rack index holding the given server index.
func (t Topology) RackOf(server int) int { return server / t.ServersPerRack }

// IsFlat reports whether the topology has a single rack (no ToR hops,
// no rack-zone accounting).
func (t Topology) IsFlat() bool { return t.Racks <= 1 }

// String renders the topology as "racks×servers-per-rack".
func (t Topology) String() string { return fmt.Sprintf("%dx%d", t.Racks, t.ServersPerRack) }

// MemberConfig configures one server of the fleet.
type MemberConfig struct {
	// SoC is the machine configuration (kind, core count, power params).
	SoC soc.Config
	// Server is the software-stack configuration (network latency,
	// kernel overhead, batching, timer ticks).
	Server server.Config
}

// Config parameterizes a Fleet.
type Config struct {
	// Policy is the routing policy.
	Policy Policy
	// P99Target is the latency budget the power_aware and
	// rack_power_aware policies pack against; required (> 0) for those
	// policies, ignored otherwise.
	P99Target sim.Duration
	// Topology shapes the members into racks. The zero value means flat:
	// one rack holding every member.
	Topology Topology
	// TorLatency is the one-way top-of-rack hop paid per direction by
	// requests routed into a rack other than rack 0 (where the balancer
	// sits). Inert on flat topologies, which have no non-local rack.
	TorLatency sim.Duration
	// DrainHold, when non-zero, turns on the hysteretic drain controller
	// for the power_aware and rack_power_aware policies (ignored by the
	// others, which derive no cap): once the controller decides a server
	// (or, rack-first under rack_power_aware, a whole rack) is surplus,
	// the balancer stops routing to it until its in-flight count reaches
	// zero AND this much additional virtual time passes, so drained
	// members accumulate consolidated idle stretches instead of flapping
	// at the packing frontier. Zero keeps the static PR 4 behavior —
	// byte-identical event sequence, no controller events. See drain.go.
	DrainHold sim.Duration
	// FeedbackEpoch, when non-zero, arms the SLA feedback loop for the
	// power_aware and rack_power_aware policies: every epoch of virtual
	// time each member's packing cap is recomputed from its measured
	// window p99 against P99Target (multiplicative decrease, additive
	// increase, integer caps, members updated in index order), replacing
	// the static derived cap after the first epoch. Zero keeps the
	// static cap for the whole run. See drain.go.
	FeedbackEpoch sim.Duration
	// Faults configures fault injection (crashes, brownouts, ToR
	// partitions) and request robustness (timeouts, retries, hedging,
	// shedding). The zero value disables the whole layer — no state, no
	// events, byte-identical output. See faults.go and recovery.go.
	Faults FaultConfig
	// Members configures each server; the slice index is the server id
	// routing policies and reports use.
	Members []MemberConfig
	// NewSource, when non-nil, replaces the synthetic workload generator:
	// build calls it with the fleet's engine, spec, seed and routing sink
	// and drives whatever Source it returns through the same Start/drain
	// window protocol. Trace replay (internal/workload/replay) plugs in
	// here. The factory runs once per build or reset — it must return a
	// source bound to the engine it is handed, never a stale one — and
	// the spec should describe the replayed stream (rate, service mean)
	// since the packing caps are derived from it. Nil keeps the synthetic
	// generator path byte for byte.
	NewSource func(eng *sim.Engine, spec workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source
}

// member is one server plus the balancer's bookkeeping for it. Policy
// decisions read the balancer's tracked occupancy count (load — requests
// inside the machine plus requests still riding the ToR hop toward it);
// the balancer adds only what the server cannot know: its rack, how many
// arrivals were assigned to it and how many it leaked at drain time.
type member struct {
	f       *Fleet // owning fleet, reached by the member's event handlers
	sys     *soc.System
	srv     *server.Server
	idx     int          // position in Fleet.members (the scans' tie-break order)
	rack    int          // topology rack index
	tor     sim.Duration // one-way ToR hop (0 on the local rack)
	cap     int          // packing cap (policy-dependent; see capFor)
	cores   int          // len(sys.Cores), cached for the shed capacity
	transit int          // routed, still riding the ToR hop
	// load tracks srv.InFlight() + transit incrementally (+1 on every
	// route/submit, −1 when a response leaves the NIC or a transit copy
	// is dropped at arrival), so policy reads are O(1) instead of asking
	// the server.
	load    int
	routed  uint64
	dropped uint64
	// truncated is the subset of dropped that was still actively
	// draining when Run's cap tripped (the engine had pending events);
	// dropped − truncated leaked forever.
	truncated uint64

	// Fault-layer state (inert, all zero, without one; see faults.go and
	// recovery.go).
	down      bool       // crashed, awaiting repair
	brown     bool       // browned out: assigned requests run slower
	cut       bool       // behind a partitioned ToR uplink
	live      []*attempt // outstanding fault-layer attempts on this member
	ok        uint64     // winning responses produced
	failed    uint64     // logical failures attributed to this member
	retried   uint64     // retry attempts routed here
	hedged    uint64     // hedged copies routed here
	crashes   uint64     // crash faults injected
	brownouts uint64     // brownout faults injected

	// Controller state (inert unless the fleet has one; see drain.go).
	state     memberState
	holdStart sim.Time         // when the current hold began (stale-expiry filter)
	drains    uint64           // completed drains (entries into the held state)
	capMax    int              // feedback additive-increase ceiling
	netLat    sim.Duration     // effective client RTT component (ToR return folded in)
	win       *stats.Histogram // current-epoch latency window (feedback only)
}

// Fleet is N servers behind one load balancer on one engine.
type Fleet struct {
	eng  *sim.Engine
	cfg  Config
	topo Topology
	spec workload.Spec
	gen  workload.Source
	// sink is route bound to the fleet once: what every source emits
	// into.
	sink func(*workload.Request)

	members []*member
	byRack  [][]*member
	rr      int

	// routed recycles the fault-free path's per-arrival records so
	// steady-state routing allocates nothing (see routedReq).
	routed sim.Pool[routedReq]

	// ctrl is the balancer-dynamics controller; nil when both DrainHold
	// and FeedbackEpoch are zero (or the policy derives no cap), which
	// is what keeps the zero-configuration fleet byte-identical to the
	// static-cap wiring.
	ctrl *controller

	// flt is the fault layer; nil unless Config.Faults enables it, which
	// keeps the fault-free fleet byte-identical — routing pays exactly
	// one nil check. See faults.go and recovery.go.
	flt *faultState
	// faults is the fault layer's storage, kept across resets so a
	// reused faulty fleet keeps its record pools; flt points at it while
	// the layer is attached.
	faults *faultState

	// meas is the instrumentation scratch Measure reuses across calls
	// and reset cycles (see MeasureInto).
	meas measScratch

	// onResolve, when non-nil, observes the final resolution of every
	// request the balancer accepted: success (the completion handler
	// fired, or the fault layer recorded an OK) or failure (exhausted
	// retries, shed). It fires after the fleet's own bookkeeping, with
	// the request already released, so it receives plain fields. The
	// service-graph layer (graph.go) hangs the miss/fan-out machinery
	// off this hook; nil — one predictable branch — everywhere else,
	// which is what keeps a graphless fleet byte-identical.
	onResolve func(id uint64, arrival sim.Time, conn int, ok bool)

	// testOnRoute, when non-nil, observes every routing decision before
	// it takes effect — the seam the drain property tests assert
	// eligibility invariants through. Always nil outside tests.
	testOnRoute func(*member)
}

// measScratch holds the per-member instrumentation buffers of one
// measurement pass. They are fleet-owned and recycled, so a sweep that
// reuses a fleet (GraphReuse) pays for instrumentation storage once, not per
// point.
type measScratch struct {
	wins    []soc.Window
	served0 []uint64
	ok0     uint64
	merged  *stats.Histogram
	rackH   []*stats.Histogram
}

// grow resizes every per-member buffer to n, reusing capacity.
func (s *measScratch) grow(n int) {
	if cap(s.wins) < n {
		s.wins = make([]soc.Window, n)
		s.served0 = make([]uint64, n)
		return
	}
	s.wins = s.wins[:n]
	s.served0 = s.served0[:n]
}

// New assembles a fleet on a fresh engine: every member's SoC and server
// are built in index order on the shared engine, then one aggregate
// generator (seeded with seed) feeds the balancer. The workload must be
// open-loop: closed-loop clients bind to a single server's Submit and
// bypass the balancer entirely.
func New(cfg Config, spec workload.Spec, seed uint64) (*Fleet, error) {
	return NewOn(sim.NewEngine(), cfg, spec, seed)
}

// NewOn assembles a fleet on a caller-supplied engine, so several
// fleets can share one deterministic event order — the service-graph
// layer (graph.go) builds each tier this way, and New is exactly
// NewOn(sim.NewEngine(), ...). The caller owns the engine's clock:
// fleets built on a shared engine must be run through a shared driver
// (Graph.Run), never their own Run loops concurrently.
func NewOn(eng *sim.Engine, cfg Config, spec workload.Spec, seed uint64) (*Fleet, error) {
	topo, err := cfg.admit(spec)
	if err == nil {
		err = cfg.check()
	}
	if err != nil {
		return nil, err
	}
	f := &Fleet{eng: eng}
	f.build(cfg, topo, spec, seed)
	return f, nil
}

// build assembles (or, on a reset fleet, rewinds) every layer of the
// fleet on f.eng in exactly New's order — members in index order, then
// the incremental policy structures, controller, fault layer, and
// generator — so a rewound fleet schedules the identical initial event
// sequence a fresh one would. Both cases run the same assembly: each
// member's system and server are built in place by their Init methods,
// into new storage on a fresh fleet and into the old machine's on a
// reset one.
func (f *Fleet) build(cfg Config, topo Topology, spec workload.Spec, seed uint64) {
	f.cfg, f.topo, f.spec = cfg, topo, spec
	fresh := f.members == nil
	if fresh {
		f.byRack = make([][]*member, topo.Racks)
	}
	for i, mc := range cfg.Members {
		rack := topo.RackOf(i)
		var tor sim.Duration
		if rack != 0 {
			tor = cfg.TorLatency
		}
		// The return hop rides the member's recorded network round trip
		// (the client sees the response one ToR hop later); the inbound
		// hop is a scheduled transit event in route. With tor == 0 both
		// vanish, which is what keeps flat fleets byte-identical to the
		// rackless wiring.
		eff := mc
		eff.Server.NetworkLatency += tor
		var m *member
		if fresh {
			m = &member{f: f, idx: i, rack: rack, sys: new(soc.System), srv: new(server.Server)}
			f.members = append(f.members, m)
			f.byRack[rack] = append(f.byRack[rack], m)
		} else {
			m = f.members[i]
			m.reset()
		}
		m.tor = tor
		m.cap = capFor(cfg.Policy, mc, spec, cfg.P99Target, 2*tor)
		m.netLat = eff.Server.NetworkLatency
		m.sys.Init(eff.SoC, f.eng)
		m.srv.Init(m.sys, eff.Server)
		m.cores = len(m.sys.Cores)
	}
	f.rr = 0
	f.ctrl, f.flt = nil, nil
	f.initController()
	f.initFaults(seed)
	if f.sink == nil {
		f.sink = f.route
	}
	switch {
	case cfg.NewSource != nil:
		f.gen = cfg.NewSource(f.eng, spec, seed, f.sink)
	default:
		// Synthetic path: reuse the cached generator (its arrival closure
		// and request pool) when the previous point had one; a fleet that
		// last ran a custom source rebuilds it.
		if g, ok := f.gen.(*workload.Generator); ok {
			g.Reset(spec, seed)
		} else {
			f.gen = workload.NewGenerator(f.eng, spec, seed, f.sink)
		}
	}
}

// reset zeroes a member's per-run state ahead of a rewind. Everything
// configuration-derived (tor, cap, netLat, the system and server) is
// rebuilt by build, and the controller field it leaves alone (win)
// is refreshed by initController.
func (m *member) reset() {
	m.transit, m.load = 0, 0
	m.routed, m.dropped, m.truncated = 0, 0, 0
	m.down, m.brown, m.cut = false, false, false
	m.live = m.live[:0]
	m.ok, m.failed, m.retried, m.hedged, m.crashes, m.brownouts = 0, 0, 0, 0, 0, 0
	m.state = stActive
	m.holdStart = 0
	m.drains = 0
	m.capMax = 0
}

// resetOn rewinds the fleet, on its engine, to the state NewOn(eng,
// cfg, spec, seed) would have produced after the caller rewound the
// engine (Graph.Reset rewinds the shared engine once, then resets each
// tier's fleet in order). It reuses everything whose shape survives:
// the member and rack structures, the pooled per-arrival records, the
// generator and its request pool, the measurement scratch, and every
// member's machine.
// Each member's SoC and server are rewound in place (soc.System.Init,
// server.Server.Init): the devices are rebuilt in their old storage,
// the server keeps its record pool and latency histogram, and the
// cores keep their grown run queues, so a machine of the same shape
// allocates nothing and a busier point grows queues and pools only
// past the earlier high-water mark. Only the topology shape is pinned
// — cfg must keep the member count and rack layout of the original
// fleet (policy, targets, per-member configs and fault setup may all
// change, since every derived value is recomputed) — because the
// balancer's rack wiring is positional. A reset fleet is
// byte-identical to a fresh one (TestFleetResetDeterministic,
// TestResetEqualsFresh). The caller has validated cfg and checked its
// shape against f's.
func (f *Fleet) resetOn(cfg Config, spec workload.Spec, seed uint64) {
	f.build(cfg, f.topo, spec, seed)
}

// idle drops the fleet's references to its last build's inputs while
// it waits in the keep (graph.go): the configuration, the spec, and a
// source that cfg.NewSource supplied. The next resetOn installs all
// three again; a synthetic generator stays, since resetOn reuses it.
func (f *Fleet) idle() {
	if f.cfg.NewSource != nil {
		f.gen = nil
	}
	f.cfg, f.spec = Config{}, workload.Spec{}
}

// capFor derives the per-server packing cap each policy bins against.
// rack_affinity uses the server's natural capacity — one in-flight
// request per core — since it has no latency budget to spend; the
// power-aware policies use the p99-derived cap with the rack round trip
// (torRTT, both ToR hops) added to the latency floor, so remote racks
// get proportionally less queueing headroom.
func capFor(pol Policy, mc MemberConfig, spec workload.Spec, target sim.Duration, torRTT sim.Duration) int {
	if pol == RackAffinity {
		if mc.SoC.CoreCount < 1 {
			return 1
		}
		return mc.SoC.CoreCount
	}
	return powerAwareCap(mc, spec, target, torRTT)
}

// maxPackCap bounds the derived packing cap. Real fleets never hold
// anywhere near 2³⁰ in-flight requests per server, so any cap at or
// above the bound behaves as "unlimited"; its real job is keeping the
// cap arithmetic inside int64 (and the cap inside int32, for 32-bit
// builds) when the p99 target is extreme.
const maxPackCap = 1 << 30

// maxDuration is the largest representable span of virtual time, used
// by the overflow guards below.
const maxDuration = sim.Duration(math.MaxInt64)

// powerAwareCap derives the per-server in-flight cap the power_aware
// policies pack against. A request's latency floor is network RTT + both
// NIC transfers + kernel + mean service time (+ the rack round trip for
// non-local racks); each in-flight request beyond one-per-core adds
// roughly meanCoreTime/cores of queueing delay. The cap spends the slack
// between the floor and the p99 target on queueing:
//
//	cap = cores + (target − floor) / (meanCoreTime / cores)
//
// clamped to [1, maxPackCap] so a server can always make progress. The
// derivation uses only configuration and workload means, so it is a
// deterministic function of the inputs — no online estimation on this
// path (the FeedbackEpoch controller adjusts the cap later, but only at
// its own engine events).
//
// The quotient is computed overflow-safely: the naive
// slack·cores/meanCoreTime wraps negative inside int64 when the target
// is extreme (e.g. a p99_target_us near 2⁶³ ns / cores) or the mean
// core time tiny, and the old `cap < 1` clamp then silently turned an
// effectively infinite latency budget into the tightest possible cap of
// 1 — the exact opposite of the configuration's intent
// (TestPowerAwareCapExtremeTargets locks the fix).
func powerAwareCap(mc MemberConfig, spec workload.Spec, target sim.Duration, torRTT sim.Duration) int {
	cores := mc.SoC.CoreCount
	if cores <= 0 || target <= 0 {
		return 1
	}
	meanService := sim.Duration(spec.Service.Mean() * float64(sim.Second))
	meanCoreTime := meanService + mc.Server.KernelOverhead
	floor := mc.Server.NetworkLatency + 2*mc.Server.NICTransfer +
		mc.Server.KernelOverhead + meanService + torRTT
	cap := cores
	if slack := target - floor; slack > 0 && meanCoreTime > 0 {
		c := sim.Duration(cores)
		switch {
		case slack/meanCoreTime >= maxPackCap/c:
			// The quotient alone saturates the cap; computing the exact
			// value (which may not even fit int64) is pointless.
			cap = maxPackCap
		case slack <= maxDuration/c:
			// slack·cores cannot overflow: the exact legacy formula.
			cap += int(slack * c / meanCoreTime)
		default:
			// slack·cores would overflow but the quotient is small, so
			// meanCoreTime is huge. Decompose exactly — ⌊slack·c/m⌋ =
			// (slack/m)·c + ⌊(slack%m)·c/m⌋ — with the remainder term
			// (a value below cores) evaluated in float64, where its
			// sub-integer precision is irrelevant at this magnitude.
			q, r := slack/meanCoreTime, slack%meanCoreTime
			cap += int(q)*cores + int(float64(r)/float64(meanCoreTime)*float64(cores))
		}
	}
	if cap < 1 {
		cap = 1
	}
	if cap > maxPackCap {
		cap = maxPackCap
	}
	return cap
}

// load is the balancer's view of a member's occupancy: requests inside
// the machine plus requests still riding the ToR hop toward it. Without
// the transit term a remote rack would look idle for a whole hop after
// every assignment and the balancer would dogpile it. The count is
// tracked incrementally on the member (±1 at every route, delivery drop
// and completion), which TestMemberLoadTracksServer pins against the
// server's own counter.
//
//apcvet:noalloc
func (f *Fleet) load(m *member) int { return m.load }

// routedReq is the pooled per-arrival record of the fault-free path.
// Its steps run strictly in sequence — ToR transit delivery, then
// completion — so the record itself is the sim.Handler of both and
// switches on transit: a remote-rack arrival fires it once for delivery
// and once for completion, a local one only for completion.
//
//apcvet:pooled
type routedReq struct {
	f       *Fleet
	m       *member
	req     *workload.Request
	transit bool // riding the ToR hop; the next Fire delivers
}

// Fire runs the record's next step.
//
//apcvet:noalloc
func (r *routedReq) Fire() { r.f.routedStep(r) }

// newRouted takes a record from the pool and binds it to this
// arrival's assignment.
//
//apcvet:noalloc
func (f *Fleet) newRouted(m *member, req *workload.Request) *routedReq {
	r, _ := f.routed.Get()
	r.f, r.m, r.req = f, m, req
	return r
}

// routedStep is a routed record's step: the end of its ToR hop (submit
// to the member) or its completion.
//
//apcvet:noalloc
func (f *Fleet) routedStep(r *routedReq) {
	m, req := r.m, r.req
	if r.transit {
		r.transit = false
		m.transit--
		m.srv.Submit(req, r)
		return
	}
	m.load--
	if f.ctrl != nil {
		f.onComplete(m, req)
	}
	f.putRouted(r)
	id, arr, conn := req.ID, req.Arrival, req.Conn
	f.gen.Release(req)
	if f.onResolve != nil {
		f.onResolve(id, arr, conn, true)
	}
}

// putRouted unbinds a completed record and returns it to the pool; the
// caller must have copied any request fields it still needs before
// calling (the pool may reissue the record at the very next arrival).
//
//apcvet:poolput
//apcvet:noalloc
func (f *Fleet) putRouted(r *routedReq) {
	r.m, r.req = nil, nil
	f.routed.Put(r)
}

// route assigns one arrival to a member according to the policy and
// delivers it — immediately for local-rack members, one ToR hop later
// for remote racks. With a controller attached the completion is
// observed (drain-to-empty detection, feedback latency window) and the
// drain decision runs after the assignment, on the post-routing state.
//
//apcvet:noalloc
func (f *Fleet) route(req *workload.Request) {
	if f.flt != nil {
		f.flt.route(req)
		return
	}
	m := f.pick()
	if f.testOnRoute != nil {
		f.testOnRoute(m)
	}
	m.routed++
	r := f.newRouted(m, req)
	m.load++
	if m.tor > 0 {
		m.transit++
		r.transit = true
		f.eng.Schedule(m.tor, r)
	} else {
		m.srv.Submit(req, r)
	}
	if f.ctrl != nil && f.ctrl.hold > 0 {
		f.maybeDrain()
	}
}

// pick implements the routing policies. All tie-breaks are by rack then
// server index, so routing is a deterministic function of the servers'
// in-flight state. Members the controller is draining or holding are
// ineligible (eligible is vacuously true for every member when no
// controller is attached).
//
//apcvet:noalloc
func (f *Fleet) pick() *member {
	switch f.cfg.Policy {
	case LeastLoaded:
		return f.leastLoaded()
	case PowerAware:
		if m := firstSpare(f.members, false); m != nil {
			return m
		}
		// Every server is at its cap: the latency target is not
		// holdable at this load, so degrade to least_loaded instead of
		// queueing arrivals at the balancer.
		return f.leastLoaded()
	case RackAffinity, RackPowerAware:
		return f.rackPick()
	default: // RoundRobin
		// Skip ineligible members (crashed or partitioned — possible only
		// with a fault layer; without one the first candidate always
		// wins, preserving the fault-free event sequence exactly).
		for range f.members {
			m := f.members[f.rr%len(f.members)]
			f.rr++
			if m.eligible() {
				return m
			}
		}
		return f.leastLoaded()
	}
}

// rackPick packs rack-first: among racks with cap headroom, an active
// rack (any member busy or in transit) beats waking a new one, and the
// lowest index wins ties; within the chosen rack an already-active
// server below its cap beats waking an idle one, again lowest index
// first. When no rack has headroom the latency target is not holdable,
// so the policy degrades to least_loaded like power_aware does. Only
// eligible members count — a rack the controller is draining has none,
// so it neither attracts traffic nor offers headroom.
//
//apcvet:noalloc
func (f *Fleet) rackPick() *member {
	var chosen []*member
	for _, rack := range f.byRack {
		spare, active := false, false
		for _, m := range rack {
			if m.eligible() {
				spare = spare || m.load < m.cap
				active = active || m.load > 0
			}
		}
		if !spare {
			continue
		}
		if active {
			chosen = rack // lowest-indexed active rack with headroom is final
			break
		}
		if chosen == nil {
			chosen = rack
		}
	}
	if chosen == nil {
		return f.leastLoaded()
	}
	// Within the chosen rack: the lowest-indexed already-active member
	// below its cap, else the lowest-indexed member with headroom
	// (necessarily idle — an active one would have matched first).
	if m := firstSpare(chosen, true); m != nil {
		return m
	}
	return firstSpare(chosen, false)
}

// firstSpare returns the first eligible member below its cap — with
// active, the first that is also busy — or nil.
//
//apcvet:noalloc
func firstSpare(members []*member, active bool) *member {
	for _, m := range members {
		if m.eligible() && m.load < m.cap && (!active || m.load > 0) {
			return m
		}
	}
	return nil
}

// leastLoaded returns the eligible member with the fewest
// in-flight-or-in-transit requests, lowest index on ties. At least one
// member is always eligible: the drain controller never drains server 0
// (nor rack 0), so the overload fallback cannot violate a hold.
//
//apcvet:noalloc
func (f *Fleet) leastLoaded() *member {
	var best *member
	for _, m := range f.members {
		if m.eligible() && (best == nil || m.load < best.load) {
			best = m
		}
	}
	if best == nil {
		// Unreachable (server 0 is never drained); defensively fall back
		// rather than dropping the request.
		return f.members[0]
	}
	return best
}

// Engine returns the shared engine all members run on.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Servers returns the fleet size.
func (f *Fleet) Servers() int { return len(f.members) }

// Server returns member i's server; its System is the member's SoC.
func (f *Fleet) Server(i int) *server.Server { return f.members[i].srv }

// Topology returns the rack shape the fleet was assembled with (Flat(N)
// when the configuration left it zero).
func (f *Fleet) Topology() Topology { return f.topo }

// Generated returns how many requests the aggregate generator emitted.
func (f *Fleet) Generated() uint64 { return f.gen.Generated() }

// Dropped returns the fleet-wide leak counter: requests still in flight
// when the most recent Run call gave up draining (per-server values are
// in Measurement.Servers). It is a snapshot, not an accumulator: a
// request counted here may still complete during a later Run.
func (f *Fleet) Dropped() uint64 {
	var n uint64
	for _, m := range f.members {
		n += m.dropped
	}
	return n
}

// inFlightTotal sums the servers' in-flight counters plus requests still
// riding a ToR hop, so the drain loop cannot declare the fleet empty
// while a request is between the balancer and a remote rack.
func (f *Fleet) inFlightTotal() int {
	n := 0
	for _, m := range f.members {
		n += f.load(m)
	}
	return n
}

// Run generates aggregate load for d of virtual time, then drains until
// every in-flight request on every server completes, up to
// server.DrainCap of extra virtual time, stepping the engine 1 ms at a
// time. Requests still in flight when the cap trips are snapshotted into
// the per-member dropped counters.
func (f *Fleet) Run(d sim.Duration) {
	stop := f.eng.Now() + d
	f.gen.Start(stop)
	f.eng.Run(stop)
	deadline := f.eng.Now() + server.DrainCap
	for f.inFlightTotal() > 0 && f.eng.Now() < deadline {
		f.eng.Run(f.eng.Now() + sim.Millisecond)
	}
	f.snapshotDropped(f.inFlightTotal() > 0 && f.eng.Pending() > 0)
}

// snapshotDropped records each member's still-in-flight count as
// dropped, and as truncated too when trunc is set. A drain loop sets it
// when the engine still holds events at the cap, so the stragglers are
// progressing and merely outlived it; with an empty queue nothing can
// ever complete them, and they leaked. Perpetual timers (the feedback
// epoch tick, fault injection, a member's timer ticks) keep the queue
// non-empty, so there the split is optimistic: a leak next to a live
// timer still reads as truncated.
func (f *Fleet) snapshotDropped(trunc bool) {
	for _, m := range f.members {
		m.dropped, m.truncated = uint64(f.load(m)), 0
		if trunc {
			m.truncated = m.dropped
		}
	}
}

// ServerStats is the measured outcome of one fleet member.
type ServerStats struct {
	// Index is the server id (position in Config.Members); Rack is the
	// topology rack holding it (always 0 on flat fleets).
	Index int `json:"index"`
	Rack  int `json:"rack"`
	// Routed counts arrivals the balancer assigned to this server.
	Routed uint64 `json:"routed"`
	// Served counts completed requests; Dropped counts requests still in
	// flight when the fleet drain gave up.
	Served  uint64 `json:"served"`
	Dropped uint64 `json:"dropped"`
	// Drains counts completed hysteretic drains: times the controller
	// drained this server to empty and held it (see drain.go). Always 0
	// — and omitted from JSON — without a drain controller, which keeps
	// controller-free output byte-identical to the static-cap fleet.
	Drains uint64 `json:"drains,omitempty"`
	// TruncatedDrain is the subset of Dropped still actively draining
	// when the fleet drain cap tripped; Dropped − TruncatedDrain leaked
	// forever. 0 (and omitted) on clean drains.
	TruncatedDrain uint64 `json:"truncated_drain,omitempty"`

	// Fault-layer counters (see faults.go); all 0 — and omitted — when
	// the fault layer is off, preserving byte parity.
	OK        uint64 `json:"ok,omitempty"`
	Failed    uint64 `json:"failed,omitempty"`
	Retried   uint64 `json:"retried,omitempty"`
	Hedged    uint64 `json:"hedged,omitempty"`
	Crashes   uint64 `json:"crashes,omitempty"`
	Brownouts uint64 `json:"brownouts,omitempty"`

	// Client-observed latencies of this server's requests, seconds.
	MeanLatency float64 `json:"mean_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`

	// Average watts over the measured window, from this server's own
	// meter.
	SoCWatts   float64 `json:"soc_w"`
	DRAMWatts  float64 `json:"dram_w"`
	TotalWatts float64 `json:"total_w"`

	// Core residencies over the measured window.
	CC0Residency    float64 `json:"cc0_residency"`
	CC1Residency    float64 `json:"cc1_residency"`
	AllIdle         float64 `json:"all_idle"`
	AllIdleCensored float64 `json:"all_idle_censored"`

	// PC1A statistics; nil on configurations without an APMU.
	PC1AResidency *float64 `json:"pc1a_residency,omitempty"`
	PC1AEntries   *uint64  `json:"pc1a_entries,omitempty"`
}

// RackStats aggregates one rack's members into the power-zone view:
// counters and watts are sums over the rack (energy is additive, so the
// watts are the rack-zone meter integral over the window), residencies
// are unweighted means, and latency quantiles come from merging the
// members' histograms.
type RackStats struct {
	// Index is the rack id; Local marks rack 0, whose top-of-rack switch
	// the balancer hangs off (its members pay no ToR hop).
	Index int  `json:"index"`
	Local bool `json:"local"`
	// Servers is the member count; ActiveServers counts members the
	// balancer actually routed to — the packing footprint.
	Servers       int `json:"servers"`
	ActiveServers int `json:"active_servers"`

	Routed  uint64 `json:"routed"`
	Served  uint64 `json:"served"`
	Dropped uint64 `json:"dropped"`
	// TruncatedDrain and the fault counters sum the members'; Partitions
	// counts ToR partitions injected on this rack. All 0 (and omitted)
	// without a fault layer.
	TruncatedDrain uint64 `json:"truncated_drain,omitempty"`
	Failed         uint64 `json:"failed,omitempty"`
	Crashes        uint64 `json:"crashes,omitempty"`
	Partitions     uint64 `json:"partitions,omitempty"`

	MeanLatency float64 `json:"mean_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`

	SoCWatts   float64 `json:"soc_w"`
	DRAMWatts  float64 `json:"dram_w"`
	TotalWatts float64 `json:"total_w"`

	AllIdle float64 `json:"all_idle"`

	PC1AResidency *float64 `json:"pc1a_residency,omitempty"`
	PC1AEntries   *uint64  `json:"pc1a_entries,omitempty"`
}

// Measurement is the fleet-wide outcome of one measured window:
// aggregates over all servers plus the per-server breakdown (and the
// per-rack breakdown on multi-rack topologies). Counters are sums; watts
// are sums of per-server meter averages (energy is additive);
// residencies are unweighted means (every member measures the same
// window); latency quantiles come from the merged per-server histograms.
type Measurement struct {
	Served    uint64 `json:"served"`
	Generated uint64 `json:"generated"`
	Dropped   uint64 `json:"dropped"`
	// Drains sums the members' completed hysteretic drains; 0 (and
	// omitted) without a drain controller.
	Drains uint64 `json:"drains,omitempty"`
	// TruncatedDrain sums the members': the subset of Dropped still
	// actively draining when the drain cap tripped.
	TruncatedDrain uint64 `json:"truncated_drain,omitempty"`

	// Fault-layer outcome (see faults.go and recovery.go); all 0 (and
	// omitted) when the fault layer is off. OK+Failed+Shed+still-pending
	// = Generated: every arrival resolves exactly one way.
	OK         uint64 `json:"ok,omitempty"`
	Failed     uint64 `json:"failed,omitempty"`
	Retried    uint64 `json:"retried,omitempty"`
	Hedged     uint64 `json:"hedged,omitempty"`
	Shed       uint64 `json:"shed,omitempty"`
	Crashes    uint64 `json:"crashes,omitempty"`
	Brownouts  uint64 `json:"brownouts,omitempty"`
	Partitions uint64 `json:"partitions,omitempty"`
	// GoodputQPS is successful responses per second of measured window —
	// the fault layer's headline rate (throughput that reached clients).
	GoodputQPS float64 `json:"goodput_qps,omitempty"`
	// RecoveryP50/P99 are quantiles (seconds) of the client-observed
	// latency of requests that suffered at least one loss or timeout and
	// still succeeded — the time to recover from a fault. 0 when no
	// request suffered.
	RecoveryP50 float64 `json:"recovery_p50_s,omitempty"`
	RecoveryP99 float64 `json:"recovery_p99_s,omitempty"`

	// ServedWindow counts only the requests completed inside the
	// measured window (Served also includes warmup), and Window is that
	// window's actual extent including the drain tail — the pair
	// throughput rates must be computed from, since the power averages
	// cover the same interval.
	ServedWindow uint64       `json:"served_window"`
	Window       sim.Duration `json:"window_ns"`

	MeanLatency float64 `json:"mean_latency_s"`
	P50Latency  float64 `json:"p50_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`
	P999Latency float64 `json:"p999_latency_s"`

	SoCWatts   float64 `json:"soc_w"`
	DRAMWatts  float64 `json:"dram_w"`
	TotalWatts float64 `json:"total_w"`

	CC0Residency    float64 `json:"cc0_residency"`
	CC1Residency    float64 `json:"cc1_residency"`
	AllIdle         float64 `json:"all_idle"`
	AllIdleCensored float64 `json:"all_idle_censored"`

	// Fleet PC1A statistics: residency is the mean over members,
	// entries the sum. Nil when the members have no APMU.
	PC1AResidency *float64 `json:"pc1a_residency,omitempty"`
	PC1AEntries   *uint64  `json:"pc1a_entries,omitempty"`

	Servers []ServerStats `json:"servers"`
	// Racks is the per-rack-zone breakdown; nil on flat topologies,
	// where the fleet aggregate already is the only zone.
	Racks []RackStats `json:"racks,omitempty"`
}

// Measure runs the fleet through the standard warmup → measure
// sequence (warmup first, then every member's measurement window
// opened, then the measured window) and returns the fleet-wide
// measurement. The returned value's slices are freshly allocated, so
// callers may retain it across further use of the fleet.
func (f *Fleet) Measure(warmup, duration sim.Duration) Measurement {
	var out Measurement
	f.MeasureInto(&out, warmup, duration)
	return out
}

// MeasureInto is Measure writing into a caller-owned Measurement: out's
// Servers and Racks backing arrays are reused across calls (everything
// else in *out is overwritten), and all per-member instrumentation
// state comes from the fleet's reusable scratch. Callers that retain
// measurements across sweep points want Measure; callers that consume
// them point-by-point use this and allocate nothing but the histograms'
// first growth.
func (f *Fleet) MeasureInto(out *Measurement, warmup, duration sim.Duration) {
	f.Run(warmup)
	f.measureBegin()
	f.Run(duration)
	f.measureCollect(out)
}

// measureBegin records every baseline (one soc.Window per member,
// served counts, fault OKs) at the instant the measured window opens.
// Split from measureCollect so a multi-fleet driver (Graph.Measure) can
// open every tier's window, run the shared engine once, and collect
// each tier against the common window.
func (f *Fleet) measureBegin() {
	s := &f.meas
	s.grow(len(f.members))
	for i, m := range f.members {
		s.wins[i] = m.sys.OpenWindow()
		s.served0[i] = m.srv.Served()
	}
	s.ok0 = 0
	if f.flt != nil {
		s.ok0 = f.flt.ok
	}
}

// measureCollect folds the windows measureBegin opened into *out.
// Every member's window opened at the same instant, so the first one's
// length is the fleet's.
func (f *Fleet) measureCollect(out *Measurement) {
	n := len(f.members)
	s := &f.meas
	wins := s.wins
	ok0 := s.ok0

	*out = Measurement{Servers: out.Servers[:0], Racks: out.Racks[:0]}
	out.Generated = f.gen.Generated()
	window := wins[0].Len()
	out.Window = window
	for i, m := range f.members {
		out.ServedWindow += m.srv.Served() - s.served0[i]
	}
	if s.merged == nil {
		s.merged = stats.NewLatencyHistogram()
	} else {
		s.merged.Reset()
	}
	merged := s.merged
	haveAPMU := false
	pc1aRes := 0.0
	var pc1aEnt uint64
	for i, m := range f.members {
		ss := ServerStats{
			Index:          i,
			Rack:           m.rack,
			Routed:         m.routed,
			Served:         m.srv.Served(),
			Dropped:        m.dropped,
			Drains:         m.drains,
			TruncatedDrain: m.truncated,
			OK:             m.ok,
			Failed:         m.failed,
			Retried:        m.retried,
			Hedged:         m.hedged,
			Crashes:        m.crashes,
			Brownouts:      m.brownouts,
			MeanLatency:    m.srv.Latencies().Mean(),
			P99Latency:     m.srv.Latencies().Quantile(0.99),
			SoCWatts:       wins[i].Watts(power.Package),
			DRAMWatts:      wins[i].Watts(power.DRAM),
			TotalWatts:     wins[i].TotalWatts(),
			CC0Residency:   wins[i].Residency(cpu.CC0),
			CC1Residency:   wins[i].Residency(cpu.CC1),
		}
		ss.AllIdle, ss.AllIdleCensored = wins[i].AllIdle()
		if r, e, ok := wins[i].PC1A(); ok {
			ss.PC1AResidency, ss.PC1AEntries = &r, &e
			haveAPMU = true
			pc1aRes += r
			pc1aEnt += e
		}
		out.Servers = append(out.Servers, ss)
		out.Served += ss.Served
		out.Dropped += ss.Dropped
		out.Drains += ss.Drains
		out.TruncatedDrain += ss.TruncatedDrain
		out.Crashes += ss.Crashes
		out.Brownouts += ss.Brownouts
		out.SoCWatts += ss.SoCWatts
		out.DRAMWatts += ss.DRAMWatts
		out.TotalWatts += ss.TotalWatts
		out.CC0Residency += ss.CC0Residency
		out.CC1Residency += ss.CC1Residency
		out.AllIdle += ss.AllIdle
		out.AllIdleCensored += ss.AllIdleCensored
		merged.Merge(m.srv.Latencies())
	}
	fn := float64(n)
	out.CC0Residency /= fn
	out.CC1Residency /= fn
	out.AllIdle /= fn
	out.AllIdleCensored /= fn
	out.MeanLatency = merged.Mean()
	out.P50Latency = merged.Quantile(0.50)
	out.P99Latency = merged.Quantile(0.99)
	out.P999Latency = merged.Quantile(0.999)
	if haveAPMU {
		pc1aRes /= fn
		out.PC1AResidency, out.PC1AEntries = &pc1aRes, &pc1aEnt
	}
	if fs := f.flt; fs != nil {
		// The fleet-level counters are authoritative: the per-member
		// values are attribution detail and can undercount (a failure
		// with no live member to pin it on, a retry that found nowhere
		// to go) — fs counts every resolution exactly once.
		out.OK = fs.ok
		out.Failed = fs.failed
		out.Retried = fs.retried
		out.Hedged = fs.hedged
		out.Shed = fs.shed
		for _, n := range fs.partitions {
			out.Partitions += n
		}
		if window > 0 {
			out.GoodputQPS = float64(fs.ok-ok0) / window.Seconds()
		}
		if fs.recovery.Count() > 0 {
			out.RecoveryP50 = fs.recovery.Quantile(0.50)
			out.RecoveryP99 = fs.recovery.Quantile(0.99)
		}
		// The fleet-level quantiles switch to the client's view: what a
		// machine measured for a response the client abandoned (or never
		// got) is not a latency anyone observed. Per-server stats keep
		// the machine view — that is what each machine did.
		out.MeanLatency = fs.lat.Mean()
		out.P50Latency = fs.lat.Quantile(0.50)
		out.P99Latency = fs.lat.Quantile(0.99)
		out.P999Latency = fs.lat.Quantile(0.999)
	}
	if !f.topo.IsFlat() {
		out.Racks = f.rackStats(out.Servers, out.Racks)
	}
}

// rackStats folds the per-server stats into per-rack power zones,
// reusing the racks slice's capacity and the fleet's per-rack histogram
// scratch.
func (f *Fleet) rackStats(servers []ServerStats, racks []RackStats) []RackStats {
	nr := f.topo.Racks
	out := racks[:0]
	s := &f.meas
	if cap(s.rackH) < nr {
		s.rackH = make([]*stats.Histogram, nr)
	} else {
		s.rackH = s.rackH[:nr]
	}
	hists := s.rackH
	for r := 0; r < nr; r++ {
		out = append(out, RackStats{Index: r, Local: r == 0, Servers: len(f.byRack[r])})
		if f.flt != nil {
			out[r].Partitions = f.flt.partitions[r]
		}
		if hists[r] == nil {
			hists[r] = stats.NewLatencyHistogram()
		} else {
			hists[r].Reset()
		}
	}
	for i, ss := range servers {
		rs := &out[ss.Rack]
		if ss.Routed > 0 {
			rs.ActiveServers++
		}
		rs.Routed += ss.Routed
		rs.Served += ss.Served
		rs.Dropped += ss.Dropped
		rs.TruncatedDrain += ss.TruncatedDrain
		rs.Failed += ss.Failed
		rs.Crashes += ss.Crashes
		rs.SoCWatts += ss.SoCWatts
		rs.DRAMWatts += ss.DRAMWatts
		rs.TotalWatts += ss.TotalWatts
		rs.AllIdle += ss.AllIdle
		if ss.PC1AResidency != nil {
			if rs.PC1AResidency == nil {
				rs.PC1AResidency = new(float64)
				rs.PC1AEntries = new(uint64)
			}
			*rs.PC1AResidency += *ss.PC1AResidency
			*rs.PC1AEntries += *ss.PC1AEntries
		}
		hists[ss.Rack].Merge(f.members[i].srv.Latencies())
	}
	for r := range out {
		rs := &out[r]
		if rs.Servers > 0 {
			rs.AllIdle /= float64(rs.Servers)
			if rs.PC1AResidency != nil {
				*rs.PC1AResidency /= float64(rs.Servers)
			}
		}
		rs.MeanLatency = hists[r].Mean()
		rs.P99Latency = hists[r].Quantile(0.99)
	}
	return out
}
