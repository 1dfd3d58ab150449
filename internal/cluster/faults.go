package cluster

// Fault injection for the fleet (DESIGN.md §8): per-server crashes and
// brownouts, and rack-level ToR partitions, driven by the shared engine
// from dedicated RNG streams. The request-robustness side — timeouts,
// retries, hedging, shedding — lives in recovery.go.
//
// The design contract mirrors drain.go's: with a zero FaultConfig no
// fault state is allocated, no events are scheduled and the routing hot
// path pays one nil check, so the fleet assembles the byte-identical
// event sequence of the fault-free layer (the scenario-level
// TestFaultsZeroParity locks report/CSV bytes). With faults enabled
// everything remains deterministic: fault timers draw from their own
// seeded streams (never the workload generator's), fire as engine
// events, and scan members in index order.
//
// What a fault means physically:
//
//	crash      — the machine stops answering: it takes no new traffic
//	             until repaired, and every response it owed is lost
//	             (the client-side attempt fails at the crash instant).
//	             Work already inside the machine keeps draining in the
//	             hardware model — the simulator does not claw back
//	             enqueued core events — so the power trace is that of a
//	             machine finishing its backlog, not a dark box.
//	brownout   — the machine runs degraded: requests assigned while the
//	             brownout is active execute with their service time
//	             scaled by BrownoutFactor.
//	partition  — a rack's top-of-rack uplink is gone: every member of
//	             the rack is unreachable, requests in flight to or on
//	             the rack are lost, and the packing policies re-pack
//	             onto the surviving racks until the partition heals.
//	             Rack 0 (the balancer's own rack) never partitions.
//
// A crash also interacts with the drain controller: a draining or held
// member that crashes releases its hold immediately (the surplus
// decision is void once the machine is gone), and the hold-start stamp
// keeps the stale hold-expiry event from ever resurrecting it.

import (
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// MaxBrownoutFactor is the ceiling on FaultConfig.BrownoutFactor. A
// member slowed more than a thousandfold is down, which the crash
// knobs model; and the ceiling keeps every slowed service time far
// inside the engine's 64-bit nanoseconds.
const MaxBrownoutFactor = 1000

// FaultConfig parameterizes fault injection and request robustness.
// The zero value disables everything; see Enabled.
type FaultConfig struct {
	// MTBF is each server's mean time between crash failures
	// (exponentially distributed, independent per server). Zero
	// disables crash injection; non-zero requires MTTR > 0.
	MTBF sim.Duration
	// MTTR is the mean repair time after a crash (exponential). While
	// down the server takes no traffic.
	MTTR sim.Duration

	// BrownoutMTBF is each server's mean time between brownouts
	// (exponential). Zero disables brownout injection; non-zero
	// requires BrownoutDuration > 0 and BrownoutFactor > 1.
	BrownoutMTBF sim.Duration
	// BrownoutDuration is how long each brownout lasts.
	BrownoutDuration sim.Duration
	// BrownoutFactor scales the service time of requests assigned to a
	// browned-out server (2 = half speed). It is at most
	// MaxBrownoutFactor.
	BrownoutFactor float64

	// TorPartitionMTBF is each non-local rack's mean time between ToR
	// partitions (exponential). Zero disables partition injection;
	// non-zero requires TorPartitionDuration > 0 and a multi-rack
	// topology.
	TorPartitionMTBF sim.Duration
	// TorPartitionDuration is how long each partition lasts.
	TorPartitionDuration sim.Duration

	// RequestTimeout, when non-zero, bounds how long the balancer waits
	// for a response before abandoning the outstanding copies of a
	// request. The k-th attempt waits RequestTimeout·2^(k−1) — the
	// exponential backoff rides on the timeout itself.
	RequestTimeout sim.Duration
	// MaxRetries bounds how many times an abandoned or lost request is
	// resubmitted before it is counted as Failed.
	MaxRetries int
	// HedgeDelay, when non-zero, arms one hedged copy per request: if
	// no response arrived after this delay, a second copy goes to a
	// different live server and the first response wins (the loser's
	// timers are cancelled via engine Cancel; its response is ignored).
	HedgeDelay sim.Duration
}

// Injecting reports whether any fault-injection process is armed.
func (fc FaultConfig) Injecting() bool {
	return fc.MTBF > 0 || fc.BrownoutMTBF > 0 || fc.TorPartitionMTBF > 0
}

// Enabled reports whether the fault layer attaches at all: any
// injection process or any request-robustness knob. A disabled config
// allocates nothing and schedules nothing — the parity contract.
func (fc FaultConfig) Enabled() bool {
	return fc.Injecting() || fc.RequestTimeout > 0 || fc.MaxRetries > 0 || fc.HedgeDelay > 0
}

// Distinct seeds derive the fault streams from Options.Seed so fault
// timing is reproducible but statistically independent of the workload
// generator's stream (which NewGenerator seeds with the raw seed).
const (
	crashSeedSalt     = 0xc4a51dead00d0001
	brownSeedSalt     = 0xc4a51dead00d0002
	partitionSeedSalt = 0xc4a51dead00d0003
)

// faultState is the per-fleet fault layer: injection processes plus the
// request-robustness bookkeeping in recovery.go. Fleet.flt stays nil
// unless FaultConfig.Enabled() — the parity contract. A fleet keeps its
// faultState across resets (Fleet.faults) and rewinds it in place, so a
// reused faulty fleet keeps its record pools and histograms.
type faultState struct {
	f   *Fleet
	cfg FaultConfig

	// Dedicated RNG streams, one per fault family. Draws happen in
	// engine-event order, which is deterministic, so the schedules are
	// a pure function of (seed, config).
	crashRNG *stats.RNG
	brownRNG *stats.RNG
	partRNG  *stats.RNG

	// lat collects client-observed latencies of successful logical
	// requests (first arrival → winning response, retries and hedges
	// included); it replaces the merged machine histograms in the
	// fleet-level quantiles when the fault layer is attached, since a
	// machine cannot observe a response the client never got.
	lat *stats.Histogram
	// recovery collects the subset of lat from requests that suffered
	// at least one loss or timeout — the client-visible time to recover
	// from a fault.
	recovery *stats.Histogram

	ok      uint64 // successful logical requests
	failed  uint64 // logical requests that exhausted their retry budget
	retried uint64 // retry attempts submitted
	hedged  uint64 // hedged copies submitted
	shed    uint64 // arrivals dropped at the balancer (overload/no capacity)

	partitioned []bool      // per-rack: ToR currently cut
	partitions  []uint64    // per-rack: partition count
	racks       []rackFault // per-rack: partition and heal events

	// Record pools (see recovery.go): steady-state fault-layer routing
	// reuses logical-request and attempt records instead of allocating
	// per arrival.
	logicals sim.Pool[logicalReq]
	attempts sim.Pool[attempt]
}

// expDur draws one exponential duration with the given mean from the
// stream, floored at one engine tick so a pathological draw cannot
// schedule into the current instant's past, and capped at sim.Horizon,
// which a draw from a mean near it can pass.
//
//apcvet:noalloc
func expDur(rng *stats.RNG, mean sim.Duration) sim.Duration {
	x := rng.ExpFloat64() * float64(mean)
	if x >= float64(sim.Horizon) {
		return sim.Horizon
	}
	return max(sim.Duration(x), 1)
}

// initFaults attaches the fault layer when the configuration asks for
// one and arms the injection processes. Members are armed in index
// order and racks in rack order, so stream consumption is fixed. The
// first attachment builds the layer; later ones (a reset fleet) rewind
// it in place.
func (f *Fleet) initFaults(seed uint64) {
	if !f.cfg.Faults.Enabled() {
		return
	}
	fs := f.faults
	if fs == nil {
		fs = &faultState{
			f:           f,
			crashRNG:    stats.NewRNG(seed ^ crashSeedSalt),
			brownRNG:    stats.NewRNG(seed ^ brownSeedSalt),
			partRNG:     stats.NewRNG(seed ^ partitionSeedSalt),
			lat:         stats.NewLatencyHistogram(),
			recovery:    stats.NewLatencyHistogram(),
			partitioned: make([]bool, f.topo.Racks),
			partitions:  make([]uint64, f.topo.Racks),
			racks:       make([]rackFault, f.topo.Racks),
		}
		for r := range fs.racks {
			fs.racks[r] = rackFault{fs: fs, r: r}
		}
		f.faults = fs
	} else {
		fs.crashRNG.Reseed(seed ^ crashSeedSalt)
		fs.brownRNG.Reseed(seed ^ brownSeedSalt)
		fs.partRNG.Reseed(seed ^ partitionSeedSalt)
		fs.lat.Reset()
		fs.recovery.Reset()
		fs.ok, fs.failed, fs.retried, fs.hedged, fs.shed = 0, 0, 0, 0, 0
		clear(fs.partitioned)
		clear(fs.partitions)
	}
	fs.cfg = f.cfg.Faults
	f.flt = fs
	if fs.cfg.MTBF > 0 {
		for _, m := range f.members {
			fs.armCrash(m)
		}
	}
	if fs.cfg.BrownoutMTBF > 0 {
		for _, m := range f.members {
			fs.armBrownout(m)
		}
	}
	if fs.cfg.TorPartitionMTBF > 0 {
		for r := 1; r < f.topo.Racks; r++ {
			fs.armPartition(r)
		}
	}
}

// alive reports whether the balancer can reach the member at all:
// neither crashed nor behind a partitioned ToR. Distinct from eligible,
// which additionally excludes members the drain controller is resting.
//
//apcvet:noalloc
func (m *member) alive() bool { return !m.down && !m.cut }

// A member's fault events are the member seen as one sim.Handler per
// event: crash and repair, brownout and its end. A crash and a brownout
// can be pending together, so each event has its own type. They reach
// the fault layer through the fleet when they fire, so they never go
// stale across resets, and scheduling one allocates nothing.
type (
	crashTimer       member
	repairTimer      member
	brownoutTimer    member
	brownoutEndTimer member
)

// Fire crashes the member.
//
//apcvet:noalloc
func (t *crashTimer) Fire() { m := (*member)(t); m.f.flt.crash(m) }

// Fire repairs the member.
//
//apcvet:noalloc
func (t *repairTimer) Fire() { m := (*member)(t); m.f.flt.repair(m) }

// Fire browns the member out.
//
//apcvet:noalloc
func (t *brownoutTimer) Fire() { m := (*member)(t); m.f.flt.brownout(m) }

// Fire ends the member's brownout.
//
//apcvet:noalloc
func (t *brownoutEndTimer) Fire() { m := (*member)(t); m.f.flt.brownoutEnd(m) }

// rackFault is one rack's partition process; its partition and heal
// events are the rackFault seen as a sim.Handler of each.
type rackFault struct {
	fs *faultState
	r  int
}

type (
	partitionTimer rackFault
	healTimer      rackFault
)

// Fire cuts the rack's ToR uplink.
//
//apcvet:noalloc
func (t *partitionTimer) Fire() { t.fs.partition(t.r) }

// Fire restores the rack's ToR uplink.
//
//apcvet:noalloc
func (t *healTimer) Fire() { t.fs.heal(t.r) }

// armCrash schedules the member's next crash.
//
//apcvet:noalloc
func (fs *faultState) armCrash(m *member) {
	fs.f.eng.Schedule(expDur(fs.crashRNG, fs.cfg.MTBF), (*crashTimer)(m))
}

// crash takes the member down: it is unreachable until repair, every
// response it owed is lost at this instant (failLive retries or fails
// each one), and any drain hold is released — the controller's surplus
// decision is void once the machine is gone, and the hold-start stamp
// keeps the already-scheduled hold expiry from firing on the repaired
// member's next drain.
//
//apcvet:noalloc
func (fs *faultState) crash(m *member) {
	m.down = true
	m.crashes++
	if m.state != stActive {
		m.state = stActive
	}
	fs.failLive(m)
	fs.f.eng.Schedule(expDur(fs.crashRNG, fs.cfg.MTTR), (*repairTimer)(m))
}

// repair brings the member back: it is immediately routable again (its
// packing cap is unchanged — the feedback loop, if armed, re-learns it)
// and the next crash is drawn from the same stream.
//
//apcvet:noalloc
func (fs *faultState) repair(m *member) {
	m.down = false
	fs.armCrash(m)
}

// armBrownout schedules the member's next brownout.
//
//apcvet:noalloc
func (fs *faultState) armBrownout(m *member) {
	fs.f.eng.Schedule(expDur(fs.brownRNG, fs.cfg.BrownoutMTBF), (*brownoutTimer)(m))
}

// brownout degrades the member for the configured duration: requests
// assigned while it is active run BrownoutFactor× slower. The member
// stays routable — a brownout is a performance fault, not an
// availability fault — so the cap policies keep packing onto it and
// pay the tail, which is exactly the production failure mode.
//
//apcvet:noalloc
func (fs *faultState) brownout(m *member) {
	m.brown = true
	m.brownouts++
	fs.f.eng.Schedule(fs.cfg.BrownoutDuration, (*brownoutEndTimer)(m))
}

// brownoutEnd restores the member's speed and draws its next brownout.
//
//apcvet:noalloc
func (fs *faultState) brownoutEnd(m *member) {
	m.brown = false
	fs.armBrownout(m)
}

// armPartition schedules rack r's next ToR partition.
//
//apcvet:noalloc
func (fs *faultState) armPartition(r int) {
	fs.f.eng.Schedule(expDur(fs.partRNG, fs.cfg.TorPartitionMTBF), (*partitionTimer)(&fs.racks[r]))
}

// partition cuts rack r's ToR uplink: every member becomes unreachable,
// and every response the rack owed is lost — it cannot cross the cut.
// Members keep serving their internal backlog; only the client-visible
// outcome is lost.
//
//apcvet:noalloc
func (fs *faultState) partition(r int) {
	fs.partitioned[r] = true
	fs.partitions[r]++
	for _, m := range fs.f.byRack[r] {
		m.cut = true
		fs.failLive(m)
	}
	fs.f.eng.Schedule(fs.cfg.TorPartitionDuration, (*healTimer)(&fs.racks[r]))
}

// heal restores rack r's uplink and draws the next partition.
//
//apcvet:noalloc
func (fs *faultState) heal(r int) {
	fs.partitioned[r] = false
	for _, m := range fs.f.byRack[r] {
		m.cut = false
	}
	fs.armPartition(r)
}

// failLive loses every outstanding attempt on the member — in flight
// inside the machine or still riding the ToR hop toward it — in
// submission order, retrying or failing each logical request at this
// instant. The member is unreachable by now, so no retry joins its live
// set while the old entries are lost, and the set keeps its backing
// array for the next run of submissions.
//
//apcvet:noalloc
func (fs *faultState) failLive(m *member) {
	pending := m.live
	m.live = pending[:0]
	for _, at := range pending {
		at.liveIdx = -1
		if at.lost || at.lr.done {
			continue
		}
		at.lost = true
		fs.lose(at)
	}
}
