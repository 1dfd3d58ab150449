package cluster

// Balancer dynamics for the cap-based packing policies (power_aware and
// rack_power_aware): a hysteretic drain controller and an SLA feedback
// loop (DESIGN.md §7).
//
// The static per-server cap of PR 4 packs correctly but lets the
// packing frontier flap: the highest-indexed server carrying load is
// re-admitted the instant a burst needs it and abandoned the instant it
// passes, so its idle periods stay too short for PC1A to pay off. The
// drain controller adds hysteresis — a drained member takes no traffic
// until it is empty AND a virtual-time hold expires — and the feedback
// loop replaces the statically derived cap with one recomputed from the
// measured window p99 every FeedbackEpoch.
//
// Both mechanisms preserve the deterministic-routing contract: every
// decision is a pure function of balancer-visible state at an engine
// event, timers are engine events in virtual time (no wall clock), the
// only randomness remains the workload generator's seeded stream, and
// members are scanned in index order so all ties break low. With
// DrainHold == 0 and FeedbackEpoch == 0 no controller is attached, no
// events are scheduled and no closures are allocated — the fleet
// assembles the byte-identical event sequence of the static-cap layer
// (TestDrainControllerOffParity and the scenario-level
// TestDrainFeedbackZeroParity lock this).

import (
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// memberState is the drain controller's per-member state machine:
//
//	          surplus decision            in-flight hits 0
//	active ───────────────────► draining ─────────────────► held
//	  ▲                                                       │
//	  └───────────────────────────────────────────────────────┘
//	                     DrainHold elapses
//
// Draining and held members are ineligible for routing; the drain
// decision never fires for server 0 (or rack 0), so at least one member
// is always active. The zero value is active, so fleets without a
// controller never leave the first state.
type memberState uint8

const (
	stActive   memberState = iota // eligible for routing
	stDraining                    // surplus; no new traffic, emptying
	stHeld                        // empty; hold timer running
)

// eligible reports whether the balancer may route to the member:
// active (not draining or held) and reachable (not crashed, not behind
// a partitioned ToR — fields that stay false without a fault layer).
//
//apcvet:noalloc
func (m *member) eligible() bool { return m.state == stActive && !m.down && !m.cut }

// maxFeedbackCapFactor bounds the feedback loop's additive increase: a
// member's cap never grows beyond this multiple of its statically
// derived cap, so a long under-target stretch cannot inflate the cap
// into a value that takes the rest of the run to decay from.
const maxFeedbackCapFactor = 4

// controller holds the fleet-level balancer-dynamics configuration.
// Fleet.ctrl stays nil unless the policy derives a cap and at least one
// mechanism is enabled.
type controller struct {
	hold      sim.Duration // hysteretic drain hold (0 = drain off)
	epoch     sim.Duration // feedback recompute period (0 = feedback off)
	targetSec float64      // P99Target in seconds (feedback comparison)
}

// initController attaches the controller when the configuration asks
// for one. Non-cap policies (round_robin, least_loaded, rack_affinity)
// ignore both knobs, mirroring how they ignore P99Target — a mixed
// policy sweep can carry the fields without invalidating its non-packing
// points.
func (f *Fleet) initController() {
	if !f.cfg.Policy.Packs() ||
		(f.cfg.DrainHold == 0 && f.cfg.FeedbackEpoch == 0) {
		// No controller this build. A previous build (before a
		// graph Reset) may have left feedback windows behind; drop them
		// so completions stop recording into them.
		for _, m := range f.members {
			m.win = nil
		}
		return
	}
	f.ctrl = &controller{
		hold:      f.cfg.DrainHold,
		epoch:     f.cfg.FeedbackEpoch,
		targetSec: f.cfg.P99Target.Seconds(),
	}
	for _, m := range f.members {
		// Clamp before multiplying: a saturated static cap times the
		// factor would overflow a 32-bit int.
		if m.cap > maxPackCap/maxFeedbackCapFactor {
			m.capMax = maxPackCap
		} else {
			m.capMax = m.cap * maxFeedbackCapFactor
		}
		if f.ctrl.epoch > 0 {
			// Reuse the window histogram across fleet resets: the bucket
			// layout is fixed, and ~2k buckets per member per sweep point
			// is exactly the churn reusing fleets avoids.
			if m.win == nil {
				m.win = stats.NewLatencyHistogram()
			} else {
				m.win.Reset()
			}
		} else {
			m.win = nil
		}
	}
	if f.ctrl.epoch > 0 {
		f.armFeedback()
	}
}

// onComplete observes one finished request on m: it is called at the
// exact instant the response leaves the member's NIC. The feedback loop
// records the client-observed latency into the member's epoch window
// (the same end-to-end value the server's own histogram records), and
// the drain controller promotes a draining member that just emptied
// into the held state.
//
//apcvet:noalloc
func (f *Fleet) onComplete(m *member, req *workload.Request) {
	if m.win != nil {
		e2e := f.eng.Now() - req.Arrival + m.netLat
		m.win.Add(e2e.Seconds())
	}
	if f.ctrl.hold > 0 && m.state == stDraining && m.load == 0 {
		f.holdMember(m)
	}
}

// maybeDrain runs after each routing decision and drains at most one
// surplus unit. Under rack_power_aware the decision is rack-first, like
// the policy's packing: a whole surplus rack is drained atomically when
// one exists, and only otherwise is the packing frontier thinned one
// member at a time. A unit is surplus when the cap headroom of the
// active members below it covers its current load, so draining it
// cannot force over-cap queueing at today's load; under a burst that
// headroom is gone and nothing drains. Scanning from the top and
// requiring an active member below means server 0 (and rack 0) is
// never drained and the fleet always keeps a routable member.
//
//apcvet:noalloc
func (f *Fleet) maybeDrain() {
	if f.cfg.Policy == RackPowerAware {
		if r := f.surplusRack(); r >= 0 {
			for _, m := range f.byRack[r] {
				f.drainMember(m)
			}
			return
		}
	}
	if m := f.surplusFrontier(); m != nil {
		f.drainMember(m)
	}
}

// surplusFrontier is the member-granular drain decision: the
// highest-indexed active member is surplus when the active members
// below it have cap headroom for its load. Only the frontier's top is a
// candidate per arrival, so the active set shrinks one member at a time
// and always from the top — the mirror image of how the packer grows it.
// It returns the member to drain, or nil. With fewer than two active
// members there is nothing below a candidate (server 0 alone is never
// drained).
//
//apcvet:noalloc
func (f *Fleet) surplusFrontier() *member {
	for i := len(f.members) - 1; i > 0; i-- {
		m := f.members[i]
		if !m.eligible() {
			continue
		}
		if below, headroom := f.spare(i); below > 0 && headroom >= int64(m.load) {
			return m
		}
		return nil
	}
	return nil
}

// surplusRack is the rack-first drain decision: the highest-indexed
// rack whose members are all active is surplus when the active members
// of lower racks have cap headroom for its whole load; its members are
// then drained together so the entire power zone idles as one. It
// returns the rack, or -1. Racks already mid-drain (any member draining
// or held) are skipped — their members re-activate individually as
// their holds expire.
//
//apcvet:noalloc
func (f *Fleet) surplusRack() int {
	for r := len(f.byRack) - 1; r > 0; r-- {
		rack := f.byRack[r]
		var load int64
		all := true
		for _, m := range rack {
			all = all && m.eligible()
			load += int64(m.load)
		}
		if !all {
			continue
		}
		if below, headroom := f.spare(rack[0].idx); below > 0 && headroom >= load {
			return r
		}
		return -1
	}
	return -1
}

// spare sums the active members of f.members[:hi]: how many there are
// and their cap headroom Σ max(cap−load, 0).
//
//apcvet:noalloc
func (f *Fleet) spare(hi int) (below int, headroom int64) {
	for _, m := range f.members[:hi] {
		if !m.eligible() {
			continue
		}
		below++
		if m.load < m.cap {
			headroom += int64(m.cap - m.load)
		}
	}
	return below, headroom
}

// drainMember moves an active member into the draining state; a member
// that is already empty holds immediately.
//
//apcvet:noalloc
func (f *Fleet) drainMember(m *member) {
	m.state = stDraining
	if m.load == 0 {
		f.holdMember(m)
	}
}

// holdMember starts the hysteresis hold on an empty member: for
// DrainHold of virtual time the balancer will not route to it, so the
// idle period it just entered is at least that long — long enough for
// the package to sink into PC1A instead of flapping at the frontier.
// The expiry is the member seen as a holdTimer; the holdStart stamp
// filters stale expiries, so a member drained again after a crash
// release or emergency re-admission cannot be woken by an earlier
// hold's timer (a stale event's fire time no longer equals holdStart +
// hold; if the re-hold started at the very same instant the two
// expiries coincide and both are correct).
//
//apcvet:noalloc
func (f *Fleet) holdMember(m *member) {
	m.state = stHeld
	m.drains++
	m.holdStart = f.eng.Now()
	f.eng.Schedule(f.ctrl.hold, (*holdTimer)(m))
}

// holdTimer is a member's hold expiry: the member seen as a
// sim.Handler.
type holdTimer member

// Fire ends the member's hold unless a later hold replaced it.
//
//apcvet:noalloc
func (t *holdTimer) Fire() {
	m := (*member)(t)
	f := m.f
	if m.state == stHeld && f.eng.Now() == m.holdStart+f.ctrl.hold {
		m.state = stActive
	}
}

// feedbackTimer is the feedback loop's epoch event: the fleet seen as a
// sim.Handler.
type feedbackTimer Fleet

// Fire runs one epoch's cap update and schedules the next.
//
//apcvet:noalloc
func (t *feedbackTimer) Fire() {
	f := (*Fleet)(t)
	f.recomputeCaps()
	f.eng.Schedule(f.ctrl.epoch, t)
}

// armFeedback schedules the SLA feedback loop: one engine event per
// FeedbackEpoch of virtual time, forever. The recompute cost is paid
// here — O(members) per epoch — never on the per-request routing path.
func (f *Fleet) armFeedback() {
	f.eng.Schedule(f.ctrl.epoch, (*feedbackTimer)(f))
}

// recomputeCaps is the per-epoch cap update: AIMD on each member's
// packing cap, driven by the member's own measured window p99 against
// the fleet's P99Target. Over target: multiplicative decrease to 3/4
// (floor 1) sheds queueing depth quickly. At or under target: additive
// increase by one (ceiling capMax) packs one request deeper per epoch.
// A window with no completions carries no signal and leaves the cap
// unchanged. Members are updated in index order and the arithmetic is
// pure integers, so the loop is as deterministic as the router.
//
//apcvet:noalloc
func (f *Fleet) recomputeCaps() {
	for _, m := range f.members {
		if m.win.Count() == 0 {
			continue
		}
		if m.win.Quantile(0.99) > f.ctrl.targetSec {
			m.cap = m.cap * 3 / 4
			if m.cap < 1 {
				m.cap = 1
			}
		} else if m.cap < m.capMax {
			m.cap++
		}
		m.win.Reset()
	}
}
