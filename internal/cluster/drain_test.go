package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// drainFleet assembles the standard controller-test fleet: a bursty
// 2×2 racked power-aware fleet whose packing frontier actually moves.
func drainFleet(t *testing.T, pol Policy, hold, epoch sim.Duration) *Fleet {
	t.Helper()
	fl, err := New(Config{
		Policy:        pol,
		P99Target:     300 * sim.Microsecond,
		Topology:      Topology{Racks: 2, ServersPerRack: 2},
		TorLatency:    5 * sim.Microsecond,
		DrainHold:     hold,
		FeedbackEpoch: epoch,
		Members:       uniformMembers(4, soc.CPC1A),
	}, workload.MemcachedBursty(150000, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestDrainNeverReadmitsBeforeEmpty is the hysteresis property test:
// once the controller decides to drain a member, no request may be
// routed to it until it has fully emptied (and, with the hold, not even
// then — only an expired hold makes it eligible again). The route seam
// asserts the stronger invariant the state machine maintains: every
// routed request lands on an *active* member, for both cap policies.
func TestDrainNeverReadmitsBeforeEmpty(t *testing.T) {
	for _, pol := range []Policy{PowerAware, RackPowerAware} {
		fl := drainFleet(t, pol, 500*sim.Microsecond, 0)
		routedWhileDraining := 0
		fl.testOnRoute = func(m *member) {
			if m.state == stDraining {
				routedWhileDraining++
			}
			if m.state != stActive {
				t.Errorf("%v: routed to member in state %d (load %d)", pol, m.state, fl.load(m))
			}
		}
		fl.Run(50 * sim.Millisecond)
		if routedWhileDraining != 0 {
			t.Errorf("%v: %d requests re-admitted before the member drained empty",
				pol, routedWhileDraining)
		}
		// The property must not hold vacuously: the controller actually
		// drained members during the run.
		var drains uint64
		for _, m := range fl.members {
			drains += m.drains
		}
		if drains == 0 {
			t.Errorf("%v: controller never drained a member — property test is vacuous", pol)
		}
		// And the drain decision never touched the anchor: server 0 (and
		// with it rack 0) must always stay routable.
		if fl.members[0].drains != 0 || !fl.members[0].eligible() {
			t.Errorf("%v: server 0 was drained (drains %d, state %d)",
				pol, fl.members[0].drains, fl.members[0].state)
		}
	}
}

// TestDrainHoldGuaranteesIdleStretch checks the hold does what it is
// for: a drained member's post-drain idle period is at least the hold
// long, so with a hold of H every drained member accumulates idle
// stretches the static policy's flapping frontier never sees.
func TestDrainHoldGuaranteesIdleStretch(t *testing.T) {
	const hold = 2 * sim.Millisecond
	fl := drainFleet(t, PowerAware, hold, 0)
	// Record, per member, when each hold started and when the member
	// next received a request; the gap must be >= hold.
	holdStart := make(map[*member]sim.Time)
	violations := 0
	fl.testOnRoute = func(m *member) {
		if start, held := holdStart[m]; held {
			if fl.eng.Now()-start < hold {
				violations++
			}
			delete(holdStart, m)
		}
	}
	// Poll hold entries through the state machine by wrapping Run in
	// small slices: a member newly in stHeld gets its start recorded.
	stop := fl.eng.Now() + 50*sim.Millisecond
	fl.gen.Start(stop)
	for fl.eng.Now() < stop {
		fl.eng.Run(fl.eng.Now() + 10*sim.Microsecond)
		for _, m := range fl.members {
			if m.state == stHeld {
				if _, seen := holdStart[m]; !seen {
					holdStart[m] = fl.eng.Now()
				}
			}
		}
	}
	if violations != 0 {
		t.Errorf("%d requests arrived at held members before the hold expired", violations)
	}
}

// TestDrainControllerOffParity locks the tentpole's parity contract at
// the fleet level: DrainHold = 0 and FeedbackEpoch = 0 must attach no
// controller and change nothing — same measurement, same engine event
// count — against a config that never mentions the fields. Non-cap
// policies must ignore the knobs entirely, mirroring P99Target.
func TestDrainControllerOffParity(t *testing.T) {
	measure := func(cfg Config) (Measurement, uint64, *Fleet) {
		fl, err := New(cfg, workload.MemcachedBursty(100000, 4), 3)
		if err != nil {
			t.Fatal(err)
		}
		m := fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
		return m, fl.eng.EventsFired(), fl
	}
	base := Config{
		Policy:    PowerAware,
		P99Target: 300 * sim.Microsecond,
		Members:   uniformMembers(4, soc.CPC1A),
	}
	zeroed := base
	zeroed.DrainHold, zeroed.FeedbackEpoch = 0, 0
	am, ae, afl := measure(base)
	bm, be, bfl := measure(zeroed)
	if !reflect.DeepEqual(am, bm) || ae != be {
		t.Errorf("explicit zero knobs changed the fleet: events %d vs %d", ae, be)
	}
	if afl.ctrl != nil || bfl.ctrl != nil {
		t.Error("zero-valued knobs attached a controller")
	}

	// round_robin ignores the knobs like it ignores P99Target.
	rr := Config{Policy: RoundRobin, Members: uniformMembers(4, soc.CPC1A)}
	rrDyn := rr
	rrDyn.DrainHold, rrDyn.FeedbackEpoch = sim.Millisecond, sim.Millisecond
	rrDyn.P99Target = 300 * sim.Microsecond
	cm, ce, cfl := measure(rr)
	dm, de, dfl := measure(rrDyn)
	if !reflect.DeepEqual(cm, dm) || ce != de {
		t.Error("round_robin did not ignore the balancer-dynamics knobs")
	}
	if cfl.ctrl != nil || dfl.ctrl != nil {
		t.Error("non-cap policy attached a controller")
	}
}

// TestDrainDeterminism extends the fleet determinism contract to the
// controller: same seed, same holds, bit-identical measurement — with
// both mechanisms armed at once.
func TestDrainDeterminism(t *testing.T) {
	for _, pol := range []Policy{PowerAware, RackPowerAware} {
		run := func() Measurement {
			fl := drainFleet(t, pol, 500*sim.Microsecond, 2*sim.Millisecond)
			return fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: repeated controller runs differ", pol)
		}
		if a.Drains == 0 {
			t.Errorf("%v: determinism test exercised no drains", pol)
		}
	}
}

// TestFeedbackAdjustsCaps pins the AIMD loop's two directions: a fleet
// whose measured p99 blows through a tight target must shrink its caps
// below the derived static value, and a lightly loaded fleet under a
// generous target must grow them (bounded by capMax).
func TestFeedbackAdjustsCaps(t *testing.T) {
	build := func(target sim.Duration, qps float64) *Fleet {
		fl, err := New(Config{
			Policy:        PowerAware,
			P99Target:     target,
			FeedbackEpoch: sim.Millisecond,
			Members:       uniformMembers(2, soc.CPC1A),
		}, workload.MemcachedBursty(qps, 8), 1)
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}

	// Tight target, heavy bursts: p99 cannot be held, caps must fall.
	overloaded := build(150*sim.Microsecond, 400000)
	static0 := overloaded.members[0].cap
	overloaded.Run(50 * sim.Millisecond)
	if got := overloaded.members[0].cap; got >= static0 {
		t.Errorf("over-target fleet kept cap %d (static %d); want multiplicative decrease", got, static0)
	}

	// Generous target, light load: every epoch under target adds one.
	light := build(5*sim.Millisecond, 20000)
	lstatic := light.members[0].cap
	light.Run(50 * sim.Millisecond)
	if got := light.members[0].cap; got <= lstatic {
		t.Errorf("under-target fleet kept cap %d (static %d); want additive increase", got, lstatic)
	}
	if got, max := light.members[0].cap, light.members[0].capMax; got > max {
		t.Errorf("cap %d exceeded its ceiling %d", got, max)
	}
}

// TestPowerAwareCapExtremeTargets is the overflow regression test: the
// old slack·cores/meanCoreTime wrapped negative inside int64 for
// extreme p99 targets, and the cap<1 clamp silently turned "effectively
// unlimited latency budget" into the tightest possible cap of 1.
func TestPowerAwareCapExtremeTargets(t *testing.T) {
	mc := MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	spec := workload.Memcached(10000)

	// The largest representable target: the naive product overflows by
	// a factor of ~cores.
	if got := powerAwareCap(mc, spec, maxDuration, 0); got != maxPackCap {
		t.Errorf("max target: cap = %d, want saturated %d", got, maxPackCap)
	}
	// A merely absurd target (300 days) still saturates rather than
	// wrapping.
	if got := powerAwareCap(mc, spec, 26000000*sim.Second, 0); got != maxPackCap {
		t.Errorf("absurd target: cap = %d, want saturated %d", got, maxPackCap)
	}
	// Just past the overflow threshold with a huge mean core time: the
	// quotient path must stay exact, not collapse to 1.
	slowSrv := mc
	slowSrv.Server.KernelOverhead = 1000 * sim.Second
	target := maxDuration - sim.Second
	got := powerAwareCap(slowSrv, spec, target, 0)
	if got <= 1 {
		t.Errorf("huge mean core time: cap = %d; overflow clamp regressed", got)
	}
	// Monotonicity survives the guards: a bigger budget never shrinks
	// the cap across the legacy/saturation boundary.
	prev := 0
	for _, tgt := range []sim.Duration{
		sim.Millisecond, sim.Second, 1000 * sim.Second,
		26000000 * sim.Second, maxDuration,
	} {
		c := powerAwareCap(mc, spec, tgt, 0)
		if c < prev {
			t.Errorf("cap not monotone in target: %v -> %d (prev %d)", tgt, c, prev)
		}
		prev = c
	}
	// Ordinary targets still use the exact legacy arithmetic.
	want := mc.SoC.CoreCount + int((300*sim.Microsecond-
		(mc.Server.NetworkLatency+2*mc.Server.NICTransfer+mc.Server.KernelOverhead+
			sim.Duration(spec.Service.Mean()*float64(sim.Second))))*
		sim.Duration(mc.SoC.CoreCount)/
		(sim.Duration(spec.Service.Mean()*float64(sim.Second))+mc.Server.KernelOverhead))
	if got := powerAwareCap(mc, spec, 300*sim.Microsecond, 0); got != want {
		t.Errorf("ordinary target: cap = %d, want legacy %d", got, want)
	}
}

// scanBelow sums the eligible members of [0, hi): their count and their
// cap headroom Σ max(cap−load, 0).
func scanBelow(members []*member, hi int) (elig int, headroom int64) {
	for _, m := range members[:hi] {
		if !m.eligible() {
			continue
		}
		elig++
		if m.load < m.cap {
			headroom += int64(m.cap - m.load)
		}
	}
	return elig, headroom
}

// scanFrontier is the definition of the member-granular drain decision:
// the highest eligible member above server 0 is surplus when the
// eligible members below it have headroom for its load.
func scanFrontier(members []*member) *member {
	for i := len(members) - 1; i >= 1; i-- {
		m := members[i]
		if !m.eligible() {
			continue
		}
		elig, headroom := scanBelow(members, i)
		if elig > 0 && headroom >= int64(m.load) {
			return m
		}
		return nil
	}
	return nil
}

// scanRack is the definition of the rack-first drain decision: the
// highest rack above rack 0 whose members are all eligible is surplus
// when the eligible members of lower racks have headroom for its load.
func scanRack(byRack [][]*member, members []*member) int {
	for r := len(byRack) - 1; r > 0; r-- {
		var load int64
		all := true
		for _, m := range byRack[r] {
			all = all && m.eligible()
			load += int64(m.load)
		}
		if !all {
			continue
		}
		elig, headroom := scanBelow(members, byRack[r][0].idx)
		if elig > 0 && headroom >= load {
			return r
		}
		return -1
	}
	return -1
}

// memberIdx names a decision's member for failure messages (-1: none).
func memberIdx(m *member) int {
	if m == nil {
		return -1
	}
	return m.idx
}

// TestDrainDecisionsMatchScan pins both drain decisions to their
// definitions: after every random mutation of a member's load, cap,
// drain state or fault flags, surplusFrontier and surplusRack must give
// the answers of the scans above, and the storm must reach each
// decision's drain answer wherever the shape allows one.
func TestDrainDecisionsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []Topology{{1, 1}, {1, 2}, {3, 1}, {1, 5}, {2, 4}, {4, 2}, {1, 13}, {13, 1}}
	for _, topo := range shapes {
		n := topo.Servers()
		f := &Fleet{topo: topo, byRack: make([][]*member, topo.Racks)}
		for i := 0; i < n; i++ {
			m := &member{idx: i, rack: topo.RackOf(i), cap: 1 + rng.Intn(4), cores: 2}
			f.members = append(f.members, m)
			f.byRack[m.rack] = append(f.byRack[m.rack], m)
		}
		drains := [2]int{}
		for step := 0; step < 400; step++ {
			m := f.members[rng.Intn(n)]
			switch rng.Intn(6) {
			case 0:
				m.load = rng.Intn(6)
			case 1:
				m.cap = 1 + rng.Intn(4)
			case 2:
				m.state = memberState(rng.Intn(3))
			case 3:
				m.down = rng.Intn(2) == 0
			case 4:
				m.cut = rng.Intn(2) == 0
			case 5:
				m.load = 0
			}
			if got, want := f.surplusFrontier(), scanFrontier(f.members); got != want {
				t.Fatalf("%v step %d: surplusFrontier = %d, scan = %d", topo, step, memberIdx(got), memberIdx(want))
			} else if got != nil {
				drains[0]++
			}
			if got, want := f.surplusRack(), scanRack(f.byRack, f.members); got != want {
				t.Fatalf("%v step %d: surplusRack = %d, scan = %d", topo, step, got, want)
			} else if got >= 0 {
				drains[1]++
			}
		}
		if n > 1 && drains[0] == 0 {
			t.Errorf("%s: frontier decision never drained in the storm", topo)
		}
		if topo.Racks > 1 && drains[1] == 0 {
			t.Errorf("%s: rack decision never drained in the storm", topo)
		}
	}
}
