package cluster

import (
	"math/rand"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// combine is the reference merge of two sibling aggregates — the same
// rules update applies in place, written as a pure function so the scan
// below is independent of the tree's own code. Left wins min-load ties.
func combine(a, b treeNode) treeNode {
	n := treeNode{
		eligCnt:     a.eligCnt + b.eligCnt,
		hasSpare:    a.hasSpare || b.hasSpare,
		hasActSpare: a.hasActSpare || b.hasActSpare,
	}
	switch {
	case a.eligCnt == 0:
		n.minLoad, n.minIdx = b.minLoad, b.minIdx
	case b.eligCnt == 0 || a.minLoad <= b.minLoad:
		n.minLoad, n.minIdx = a.minLoad, a.minIdx
	default:
		n.minLoad, n.minIdx = b.minLoad, b.minIdx
	}
	if b.maxEligIdx >= 0 {
		n.maxEligIdx = b.maxEligIdx
	} else {
		n.maxEligIdx = a.maxEligIdx
	}
	return n
}

// scanNode is the reference root: the index-order scan the tree
// replaces, computed from scratch over every member.
func scanNode(members []*member) treeNode {
	n := emptyNode
	for i, m := range members {
		n = combine(n, leafFor(m, i))
	}
	return n
}

// scanFirst is the reference for firstSpare/firstActSpare: the lowest
// index in [lo, hi) whose leaf satisfies pred, or -1.
func scanFirst(members []*member, lo, hi int, pred func(treeNode) bool) int {
	for i := lo; i < hi && i < len(members); i++ {
		if i < 0 {
			continue
		}
		if n := leafFor(members[i], i); n.eligCnt == 1 && pred(n) {
			return i
		}
	}
	return -1
}

// scanBelow sums the eligible members of [0, hi): their count and their
// cap headroom Σ max(cap−load, 0).
func scanBelow(members []*member, hi int) (elig int, headroom int64) {
	for _, m := range members[:hi] {
		if m.eligible() && m.load < m.cap {
			headroom += int64(m.cap - m.load)
		}
		elig += b2i(m.eligible())
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

// scanRackCounters recomputes one rack's counters from its members.
func scanRackCounters(rack []*member) rackCounters {
	var rc rackCounters
	for _, m := range rack {
		if !m.eligible() {
			continue
		}
		rc.elig++
		rc.active += b2i(m.load > 0)
		rc.spare += b2i(m.load < m.cap)
		rc.actSpare += b2i(m.load > 0 && m.load < m.cap)
		if m.load < m.cap {
			rc.headroom += int64(m.cap - m.load)
		}
		rc.load += int64(m.load)
	}
	return rc
}

// TestTreeMatchesScan pins the incremental structures to their
// definitions: after every random mutation, the root, the first-fit
// queries over a random range, every rack's counters, the fleet
// headroom and alive counters, and both drain decisions must equal the
// index-order scans they replace — including the lowest-index
// tie-breaking of the min-load and first-fit answers.
func TestTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []Topology{{1, 1}, {1, 2}, {3, 1}, {1, 5}, {2, 4}, {4, 2}, {1, 13}, {13, 1}}
	for _, topo := range shapes {
		n := topo.Servers()
		f := &Fleet{topo: topo, agg: aggAlive, byRack: make([][]*member, topo.Racks)}
		for i := 0; i < n; i++ {
			m := &member{idx: i, rack: topo.RackOf(i), cap: 1 + rng.Intn(4), cores: 2}
			f.members = append(f.members, m)
			f.byRack[m.rack] = append(f.byRack[m.rack], m)
		}
		f.initTree()
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
			f.touch(m)

			if got, want := *f.tree.root(), scanNode(f.members); got != want {
				t.Fatalf("%v step %d: root = %+v, scan = %+v", topo, step, got, want)
			}
			lo, hi := rng.Intn(n+1), rng.Intn(n+2)
			spare := func(nd treeNode) bool { return nd.hasSpare }
			actSpare := func(nd treeNode) bool { return nd.hasActSpare }
			if got, want := f.tree.firstSpare(lo, hi), scanFirst(f.members, lo, hi, spare); got != want {
				t.Fatalf("%v step %d: firstSpare(%d,%d) = %d, scan = %d", topo, step, lo, hi, got, want)
			}
			if got, want := f.tree.firstActSpare(lo, hi), scanFirst(f.members, lo, hi, actSpare); got != want {
				t.Fatalf("%v step %d: firstActSpare(%d,%d) = %d, scan = %d", topo, step, lo, hi, got, want)
			}
			for r, rack := range f.byRack {
				if got, want := f.rackCnt[r], scanRackCounters(rack); got != want {
					t.Fatalf("%v step %d: rack %d counters = %+v, scan = %+v", topo, step, r, got, want)
				}
			}
			if _, want := scanBelow(f.members, n); f.headroom != want {
				t.Fatalf("%v step %d: fleet headroom = %d, scan = %d", topo, step, f.headroom, want)
			}
			var alive, aliveLoad, aliveCap int
			for _, m := range f.members {
				if m.alive() {
					alive++
					aliveLoad += m.load
					aliveCap += max(m.cap, m.cores)
				}
			}
			if f.aliveCnt != alive || f.aliveLoad != aliveLoad || f.aliveCap != aliveCap {
				t.Fatalf("%v step %d: alive counters = %d/%d/%d, scan = %d/%d/%d", topo, step,
					f.aliveCnt, f.aliveLoad, f.aliveCap, alive, aliveLoad, aliveCap)
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
		// The storm must reach the drain answer of each decision
		// wherever the shape allows one.
		if n > 1 && drains[0] == 0 {
			t.Errorf("%s: frontier decision never drained in the storm", topo)
		}
		if topo.Racks > 1 && drains[1] == 0 {
			t.Errorf("%s: rack decision never drained in the storm", topo)
		}
	}
}

// TestRoundRobinKeepsNoAggregates pins the readers-only rule: a
// fault-free round_robin fleet maintains none of the incremental policy
// structures, because nothing it runs reads them. The tree and the
// counters are poisoned after assembly, so any read or write of them
// panics, and the fleet must still route correctly — every member's
// tracked load equals the server's in-flight count plus its ToR
// transit at every decision, as TestMemberLoadTracksServer requires of
// the packing policies.
func TestRoundRobinKeepsNoAggregates(t *testing.T) {
	fl, err := New(Config{
		Policy:     RoundRobin,
		Topology:   Topology{Racks: 2, ServersPerRack: 2},
		TorLatency: 5 * sim.Microsecond,
		Members:    uniformMembers(4, soc.CPC1A),
	}, workload.MemcachedBursty(60000, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	if fl.agg != aggNone {
		t.Fatalf("agg level = %d, want aggNone", fl.agg)
	}
	fl.tree = memberTree{}
	fl.rackCnt = nil
	checked := 0
	fl.testOnRoute = func(*member) {
		checked++
		for _, m := range fl.members {
			if m.load != m.srv.InFlight()+m.transit {
				t.Fatalf("member %d: tracked load %d != in-flight %d + transit %d",
					m.idx, m.load, m.srv.InFlight(), m.transit)
			}
			if m.agg != (memberAgg{}) {
				t.Fatalf("member %d: aggregate contribution %+v folded without a reader", m.idx, m.agg)
			}
		}
	}
	fl.Run(20 * sim.Millisecond)
	if checked == 0 {
		t.Fatal("no routing decisions observed")
	}
}

// TestAggLevelFollowsReaders pins which configurations keep which
// structures: the tree and rack counters for every policy that routes
// or drains from them, the alive counters only with a fault layer.
func TestAggLevelFollowsReaders(t *testing.T) {
	faults := FaultConfig{RequestTimeout: sim.Millisecond}
	for _, tc := range []struct {
		cfg  Config
		want aggLevel
	}{
		{Config{Policy: RoundRobin}, aggNone},
		{Config{Policy: RoundRobin, Faults: faults}, aggAlive},
		{Config{Policy: LeastLoaded}, aggPolicy},
		{Config{Policy: PowerAware, DrainHold: sim.Millisecond}, aggPolicy},
		{Config{Policy: RackAffinity}, aggPolicy},
		{Config{Policy: RackPowerAware, Faults: faults}, aggAlive},
	} {
		if got := aggFor(tc.cfg); got != tc.want {
			t.Errorf("%v (faults %v): agg level %d, want %d", tc.cfg.Policy, tc.cfg.Faults.Enabled(), got, tc.want)
		}
	}
}
