package cluster

// Request robustness for the fault layer (DESIGN.md §8): per-request
// timeouts with bounded retries and exponential backoff, hedged
// requests, and explicit load shedding. This is the balancer-side half
// of faults.go — the machinery that turns injected faults into the
// production outcomes (Failed/Retried/Hedged/Shed, goodput, time to
// recover) instead of silent infinite queueing.
//
// The layer separates the *logical request* — what the client sent and
// is waiting on — from its *attempts* — the copies actually submitted
// to members. A logical request resolves exactly once, as ok, failed or
// shed; attempts multiply under retries and hedging and each shows up
// in its member's Routed count, which is why Routed can exceed
// Generated when the fault layer is active.
//
// Lifecycle of a logical request:
//
//	arrival ──► (shed?) ──► attempt 1 ──┬─► response wins ──► ok
//	                  hedge timer ──► attempt 2 ┘
//	     timeout / crash / partition ──► retry (budget left) ──► ...
//	                                └─► failed (budget exhausted)
//
// Every decision happens at an engine event and scans members in index
// order; the winner of a hedge race is decided by the engine's
// deterministic (time, sequence) order, and losers are abandoned by
// flagging their attempts and cancelling their timers via sim.Event
// Cancel — never by racing state. Serial and parallel sweeps therefore
// stay bit-identical with faults enabled.

import (
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// shedSlack is the overload threshold: an arrival is shed when the live
// members' aggregate backlog reaches shedSlack× their aggregate
// capacity. Past that point queueing delay is already several times the
// no-load service time and admitting more load only manufactures
// timeouts, so overload is measured (Shed) rather than simulated as
// unbounded queueing.
const shedSlack = 4

// maxTimeoutShift caps the exponential-backoff exponent: from the 21st
// attempt on, each waits RequestTimeout·2²⁰. The wait itself saturates
// at sim.Horizon (dispatch), which is what keeps a timeout armed at any
// time of a run inside the engine's time.
const maxTimeoutShift = 20

// logicalReq is one client request as the balancer tracks it: the
// original arrival plus the retry/hedge bookkeeping. It resolves
// exactly once (done), as a success, a failure, or — before it is ever
// created — a shed. Records are pooled (faultState.logicals) and return
// to the pool at resolution. The timeout and the hedge can be pending
// at once, so unlike the sequential records each timer is its own
// handler type over the record (timeoutTimer, hedgeTimer). Zombie
// attempts may still point at a recycled record, which is why every
// late reader guards with at.lost before dereferencing lr.
//
//apcvet:pooled
type logicalReq struct {
	fs *faultState

	id      uint64
	arrival sim.Time
	service sim.Duration
	conn    int
	mem     int

	tries       int  // attempts submitted (retries included, hedges not)
	retriesLeft int  // remaining retry budget
	hedged      bool // hedged copy submitted
	suffered    bool // lost an attempt or timed out at least once
	done        bool // resolved (ok or failed)

	live    []*attempt  // outstanding copies, in liveBuf until a third
	liveBuf [2]*attempt // at most 2 live copies: primary + hedge
	timeout sim.Event   // pending per-attempt timeout
	hedge   sim.Event   // pending hedge trigger
}

// timeoutTimer and hedgeTimer are a logical request's two timers: the
// record seen as a sim.Handler of each, so arming either converts a
// pointer into the pool's slab and allocates nothing.
type (
	timeoutTimer logicalReq
	hedgeTimer   logicalReq
)

// Fire expires the outstanding attempt.
//
//apcvet:noalloc
func (t *timeoutTimer) Fire() {
	lr := (*logicalReq)(t)
	lr.fs.timeoutFire(lr)
}

// Fire submits the hedged copy.
//
//apcvet:noalloc
func (t *hedgeTimer) Fire() {
	lr := (*logicalReq)(t)
	lr.fs.hedgeFire(lr)
}

// attempt is one submitted copy of a logical request, tracked on both
// the request (live) and the member it went to (member.live, indexed by
// liveIdx for O(1) detach). A lost attempt's eventual completion inside
// the machine is ignored — the zombie keeps the machine's power and
// occupancy honest but produces no client-visible response. Records are
// pooled (faultState.attempts). Delivery and completion run strictly in
// sequence, so the record itself is the sim.Handler of both and
// switches on transit. The submitted request
// itself is the embedded req value, valid until the record is freed —
// in complete for every attempt the server saw, or at transit arrival
// for copies dropped on the hop.
//
//apcvet:pooled
type attempt struct {
	fs      *faultState
	lr      *logicalReq
	m       *member
	liveIdx int // index in m.live; -1 once detached
	lost    bool
	transit bool // riding the ToR hop; the next Fire is transitArrive

	req workload.Request
}

// newLogical takes a record from the pool and resets it, keeping its
// live backing array.
//
//apcvet:noalloc
func (fs *faultState) newLogical() *logicalReq {
	lr, fresh := fs.logicals.Get()
	if fresh {
		lr.fs = fs
		lr.live = lr.liveBuf[:0]
		return lr
	}
	*lr = logicalReq{fs: lr.fs, live: lr.live[:0]}
	return lr
}

// freeLogical recycles a resolved record. Its timers are already
// cancelled; a caller that still reads lr.done after this returns sees
// true until some later arrival reuses the record, which cannot happen
// within the current engine event.
//
//apcvet:poolput
//apcvet:noalloc
func (fs *faultState) freeLogical(lr *logicalReq) {
	fs.logicals.Put(lr)
}

// newAttempt takes an attempt record from the pool and binds it to one
// copy of lr aimed at m.
//
//apcvet:noalloc
func (fs *faultState) newAttempt(lr *logicalReq, m *member) *attempt {
	at, _ := fs.attempts.Get()
	at.fs, at.lr, at.m, at.lost, at.liveIdx = fs, lr, m, false, -1
	return at
}

// Fire runs the attempt's next step: the end of its ToR hop, or its
// completion.
//
//apcvet:noalloc
func (at *attempt) Fire() {
	if at.transit {
		at.transit = false
		at.fs.transitArrive(at)
		return
	}
	at.fs.complete(at)
}

// freeAttempt recycles an attempt record once nothing can call back
// into it: after its completion ran, or after its transit delivery was
// dropped (the one path where completion never fires).
//
//apcvet:poolput
//apcvet:noalloc
func (fs *faultState) freeAttempt(at *attempt) {
	at.lr, at.m = nil, nil
	fs.attempts.Put(at)
}

// route is the fault layer's arrival path, replacing Fleet.route's body
// when the layer is attached. The generator's request is copied into
// the logical record and released immediately — the fault layer issues
// its own per-attempt requests.
//
//apcvet:noalloc
func (fs *faultState) route(req *workload.Request) {
	if fs.shouldShed() {
		fs.shed++
		id, arr, conn := req.ID, req.Arrival, req.Conn
		fs.f.gen.Release(req)
		if fs.f.onResolve != nil {
			// A shed is a resolution too: without this a service graph
			// waiting on the request would wait forever.
			fs.f.onResolve(id, arr, conn, false)
		}
		return
	}
	lr := fs.newLogical()
	lr.id = req.ID
	lr.arrival = fs.f.eng.Now()
	lr.service = req.Service
	lr.conn = req.Conn
	lr.mem = req.MemAccesses
	lr.retriesLeft = fs.cfg.MaxRetries
	fs.f.gen.Release(req)
	fs.dispatch(lr)
	if fs.cfg.HedgeDelay > 0 && !lr.done {
		lr.hedge = fs.f.eng.Schedule(fs.cfg.HedgeDelay, (*hedgeTimer)(lr))
	}
}

// dispatch submits the next attempt of lr and arms its timeout. The
// k-th attempt waits RequestTimeout·2^(k−1) — the backoff rides on the
// timeout itself, since the balancer has nothing else to wait for.
//
//apcvet:noalloc
func (fs *faultState) dispatch(lr *logicalReq) {
	m := fs.pickLive()
	if m == nil {
		fs.fail(lr, nil)
		return
	}
	if lr.tries > 0 {
		m.retried++
	}
	lr.tries++
	fs.submitTo(lr, m)
	if fs.cfg.RequestTimeout > 0 {
		d := fs.cfg.RequestTimeout
		if shift := lr.tries - 1; shift > 0 {
			if shift > maxTimeoutShift {
				shift = maxTimeoutShift
			}
			if d > sim.Horizon>>shift {
				d = sim.Horizon
			} else {
				d <<= sim.Duration(shift)
			}
		}
		lr.timeout.Cancel()
		lr.timeout = fs.f.eng.Schedule(d, (*timeoutTimer)(lr))
	}
}

// pickLive routes an attempt: the configured policy when any member is
// eligible, otherwise an emergency re-admission of the least-loaded
// live member — waking a member the drain controller was resting beats
// failing the request.
//
//apcvet:noalloc
func (fs *faultState) pickLive() *member {
	for _, m := range fs.f.members {
		if m.eligible() {
			return fs.f.pick()
		}
	}
	return fs.pickLiveAvoid(nil)
}

// pickLiveAvoid returns the least-loaded live member other than avoid
// (lowest index on ties), preferring eligible members and re-admitting
// a resting one only when no eligible member exists. Returns nil when
// every other member is dead or cut — hedging to the same machine is
// pointless and retrying has nowhere to go.
//
//apcvet:noalloc
func (fs *faultState) pickLiveAvoid(avoid *member) *member {
	f := fs.f
	var best *member
	for _, m := range f.members {
		if m == avoid || !m.eligible() {
			continue
		}
		if best == nil || f.load(m) < f.load(best) {
			best = m
		}
	}
	if best != nil {
		return best
	}
	for _, m := range f.members {
		if m == avoid || !m.alive() {
			continue
		}
		if best == nil || f.load(m) < f.load(best) {
			best = m
		}
	}
	if best != nil && best.state != stActive {
		// Emergency re-admission: the hold is void; a stale hold expiry
		// no-ops because any future re-hold stamps a new holdStart.
		best.state = stActive
	}
	return best
}

// submitTo sends one copy of lr to m — the fault-layer mirror of
// Fleet.route's delivery half, plus attempt tracking and the brownout
// service-time penalty.
//
//apcvet:noalloc
func (fs *faultState) submitTo(lr *logicalReq, m *member) {
	f := fs.f
	if f.testOnRoute != nil {
		f.testOnRoute(m)
	}
	m.routed++
	at := fs.newAttempt(lr, m)
	at.liveIdx = len(m.live)
	m.live = append(m.live, at)
	lr.live = append(lr.live, at)
	at.req = workload.Request{
		ID:          lr.id,
		Arrival:     f.eng.Now(),
		Service:     lr.service,
		Conn:        lr.conn,
		MemAccesses: lr.mem,
	}
	if m.brown {
		at.req.Service = sim.Duration(float64(at.req.Service) * fs.cfg.BrownoutFactor)
	}
	m.load++
	if m.tor > 0 {
		m.transit++
		at.transit = true
		f.eng.Schedule(m.tor, at)
	} else {
		m.srv.Submit(&at.req, at)
	}
	if f.ctrl != nil && f.ctrl.hold > 0 {
		f.maybeDrain()
	}
}

// transitArrive delivers one attempt at the end of its ToR hop. Copies
// that lost their race — or whose member died — while riding the hop
// are never submitted, so their occupancy claim is released and the
// record freed here (completion will never fire for them).
//
//apcvet:noalloc
func (fs *faultState) transitArrive(at *attempt) {
	m := at.m
	m.transit--
	// at.lost short-circuits before lr is dereferenced: a lost copy's
	// logical request may already be resolved and recycled.
	if at.lost || at.lr.done {
		m.load--
		fs.freeAttempt(at)
		return
	}
	if !m.alive() {
		// The fault hit while this copy rode the hop; failLive already
		// catches in-transit attempts, so this is a defensive backstop,
		// not a known path.
		fs.detach(at)
		at.lost = true
		m.load--
		fs.lose(at)
		fs.freeAttempt(at)
		return
	}
	m.srv.Submit(&at.req, at)
}

// complete observes one attempt's response leaving its member's NIC.
// Zombie completions — attempts already lost to a fault, a timeout or a
// hedge race — still feed the drain controller's empty detection (the
// machine really did finish work) but produce no client-visible
// response. The first live completion wins the logical request.
//
//apcvet:noalloc
func (fs *faultState) complete(at *attempt) {
	f, m := fs.f, at.m
	m.load--
	// at.lost short-circuits before lr is dereferenced: a zombie's
	// logical request may already be resolved and recycled.
	lr := at.lr
	win := !at.lost && !lr.done
	if f.ctrl != nil {
		if m.win != nil && win {
			// Client-observed latency of the winning response, recorded at
			// the member that produced it — the signal the feedback loop
			// packs against.
			e2e := f.eng.Now() - lr.arrival + m.netLat
			m.win.AddDuration(e2e)
		}
		if f.ctrl.hold > 0 && m.state == stDraining && m.load == 0 {
			f.holdMember(m)
		}
	}
	if !win {
		fs.freeAttempt(at)
		return
	}
	fs.detach(at)
	lr.done = true
	lr.timeout.Cancel()
	lr.hedge.Cancel()
	for _, o := range lr.live {
		if o != at {
			// The hedge race's loser: abandoned, its response ignored.
			o.lost = true
			fs.detach(o)
		}
	}
	lr.live = lr.live[:0]
	e2e := f.eng.Now() - lr.arrival + m.netLat
	fs.lat.AddDuration(e2e)
	if lr.suffered {
		fs.recovery.AddDuration(e2e)
	}
	m.ok++
	fs.ok++
	id, arr, conn := lr.id, lr.arrival, lr.conn
	fs.freeAttempt(at)
	fs.freeLogical(lr)
	if f.onResolve != nil {
		f.onResolve(id, arr, conn, true)
	}
}

// timeoutFire abandons every outstanding copy of lr — their eventual
// responses are ignored — and retries or fails it.
//
//apcvet:noalloc
func (fs *faultState) timeoutFire(lr *logicalReq) {
	if lr.done {
		return
	}
	lr.timeout = sim.Event{}
	lr.suffered = true
	var last *member
	for _, at := range lr.live {
		last = at.m
		at.lost = true
		fs.detach(at)
	}
	lr.live = lr.live[:0]
	fs.retryOrFail(lr, last)
}

// lose handles one attempt lost to a fault (crash, partition): if a
// hedged copy is still racing the request rides on it; otherwise the
// request retries or fails at this instant.
//
//apcvet:noalloc
func (fs *faultState) lose(at *attempt) {
	lr := at.lr
	if lr.done {
		return
	}
	lr.suffered = true
	for i, o := range lr.live {
		if o == at {
			lr.live = append(lr.live[:i], lr.live[i+1:]...)
			break
		}
	}
	if len(lr.live) > 0 {
		return
	}
	fs.retryOrFail(lr, at.m)
}

// retryOrFail spends one retry credit or resolves the request as
// failed. m attributes the failure to the member whose attempt died
// last (nil when no attempt was ever submitted).
//
//apcvet:noalloc
func (fs *faultState) retryOrFail(lr *logicalReq, m *member) {
	if lr.retriesLeft > 0 {
		lr.retriesLeft--
		fs.retried++
		fs.dispatch(lr)
		return
	}
	fs.fail(lr, m)
}

// fail resolves lr as failed: its retry budget is exhausted (or nowhere
// live remains to send it). lr.live is empty on every path here — the
// callers (timeout, loss, a dispatch that found no member) abandoned or
// never created the outstanding copies.
//
//apcvet:noalloc
func (fs *faultState) fail(lr *logicalReq, m *member) {
	lr.done = true
	lr.timeout.Cancel()
	lr.hedge.Cancel()
	lr.live = lr.live[:0]
	fs.failed++
	if m != nil {
		m.failed++
	}
	id, arr, conn := lr.id, lr.arrival, lr.conn
	fs.freeLogical(lr)
	if fs.f.onResolve != nil {
		fs.f.onResolve(id, arr, conn, false)
	}
}

// hedgeFire submits the hedged copy: a second attempt to a different
// live member, racing the first — whichever response arrives first wins
// in complete, and the loser is abandoned there.
//
//apcvet:noalloc
func (fs *faultState) hedgeFire(lr *logicalReq) {
	if lr.done || lr.hedged {
		return
	}
	lr.hedge = sim.Event{}
	if len(lr.live) == 0 {
		return // mid-retry; the fresh attempt restarts the race alone
	}
	m := fs.pickLiveAvoid(lr.live[0].m)
	if m == nil {
		return
	}
	lr.hedged = true
	fs.hedged++
	m.hedged++
	fs.submitTo(lr, m)
}

// detach removes the attempt from its member's live set (swap-remove;
// order within the set never matters, loss handling iterates a
// snapshot).
//
//apcvet:noalloc
func (fs *faultState) detach(at *attempt) {
	i := at.liveIdx
	if i < 0 {
		return
	}
	live := at.m.live
	last := len(live) - 1
	live[i] = live[last]
	live[i].liveIdx = i
	live[last] = nil
	at.m.live = live[:last]
	at.liveIdx = -1
}

// shouldShed reports whether this arrival must be dropped at the
// balancer: no live member exists, or the live members' aggregate
// backlog has reached shedSlack× their aggregate capacity (each
// member's capacity is its packing cap or its core count, whichever is
// larger). Shedding is the fault layer's graceful-degradation valve —
// without it a long partition turns into unbounded queueing and every
// admitted request times out anyway.
//
//apcvet:noalloc
func (fs *faultState) shouldShed() bool {
	alive, load, capacity := false, 0, 0
	for _, m := range fs.f.members {
		if m.alive() {
			alive = true
			load += m.load
			capacity += max(m.cap, m.cores)
		}
	}
	return !alive || load >= shedSlack*capacity
}
