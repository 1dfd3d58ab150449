package cluster

// Incremental policy data structures (DESIGN.md §9): a segment tree over
// the members plus per-rack and fleet-level occupancy counters, so the
// routing policies and the drain controller stop rescanning the fleet on
// every arrival.
//
// The structures are purely an accelerator: every answer is defined as —
// and tested against (TestTreeMatchesScan) — the index-order scan it
// replaces, with identical tie-breaking, so goldens and parity suites
// hold byte-for-byte. Leaves mirror the members in index order; internal
// nodes aggregate. Fleet.touch refolds a member whenever any input of a
// routing decision changes (load, cap, drain state, crash/partition
// flags) — O(log n) per update — and each policy decision is then
// O(log n) (or O(racks) for rack selection) instead of O(n). The drain
// decisions read only the root and the counters (drain.go).
//
// touch maintains only what the configuration can read (aggLevel): a
// fault-free round_robin fleet reads none of it and pays nothing.
//
// Aggregates per node, all over *eligible* members only (active in the
// drain controller's sense and reachable — see member.eligible):
//
//	eligCnt     — how many
//	minLoad/minIdx — least-loaded, lowest index on ties (left-first)
//	hasSpare    — any with load < cap
//	hasActSpare — any with 0 < load < cap
//	maxEligIdx  — highest index
type treeNode struct {
	eligCnt     int
	minLoad     int
	minIdx      int // -1 when eligCnt == 0
	maxEligIdx  int // -1 when eligCnt == 0
	hasSpare    bool
	hasActSpare bool
}

// emptyNode is the neutral element of the merge: an ineligible leaf, or
// an internal node over ineligible leaves.
var emptyNode = treeNode{minIdx: -1, maxEligIdx: -1}

// memberTree is the segment tree. nodes[1] is the root; member i's leaf
// is nodes[base+i]; leaves beyond the member count stay neutral.
type memberTree struct {
	members []*member
	base    int
	nodes   []treeNode
}

// build (re)sizes the tree over the given members with every node
// neutral; the caller folds each member's leaf in with update. An
// internal node is final once the last leaf below it has been folded,
// since nothing under it changes afterwards.
func (t *memberTree) build(members []*member) {
	t.members = members
	t.base = 1
	for t.base < len(members) {
		t.base <<= 1
	}
	need := 2 * t.base
	if cap(t.nodes) < need {
		t.nodes = make([]treeNode, need)
	} else {
		t.nodes = t.nodes[:need]
	}
	for i := range t.nodes {
		t.nodes[i] = emptyNode
	}
}

// leafFor derives member idx's leaf from its current routing state.
//
//apcvet:noalloc
func leafFor(m *member, idx int) treeNode {
	if !m.eligible() {
		return emptyNode
	}
	ld := m.load
	return treeNode{
		eligCnt:     1,
		minLoad:     ld,
		minIdx:      idx,
		maxEligIdx:  idx,
		hasSpare:    ld < m.cap,
		hasActSpare: ld > 0 && ld < m.cap,
	}
}

// update recomputes member idx's leaf and its root path. The merge is
// unrolled onto pointers — the tree is written on every load change
// (twice per request), so the root path must not copy nodes through a
// call boundary. Left wins min-load ties, which is what preserves the
// scans' lowest-index tie-breaking exactly.
//
//apcvet:noalloc
func (t *memberTree) update(idx int) {
	i := t.base + idx
	t.nodes[i] = leafFor(t.members[idx], idx)
	for i >>= 1; i >= 1; i >>= 1 {
		l, r := &t.nodes[2*i], &t.nodes[2*i+1]
		n := &t.nodes[i]
		n.eligCnt = l.eligCnt + r.eligCnt
		n.hasSpare = l.hasSpare || r.hasSpare
		n.hasActSpare = l.hasActSpare || r.hasActSpare
		switch {
		case l.eligCnt == 0:
			n.minLoad, n.minIdx = r.minLoad, r.minIdx
		case r.eligCnt == 0 || l.minLoad <= r.minLoad:
			n.minLoad, n.minIdx = l.minLoad, l.minIdx
		default:
			n.minLoad, n.minIdx = r.minLoad, r.minIdx
		}
		if r.maxEligIdx >= 0 {
			n.maxEligIdx = r.maxEligIdx
		} else {
			n.maxEligIdx = l.maxEligIdx
		}
	}
}

// root returns the whole-fleet aggregate.
//
//apcvet:noalloc
func (t *memberTree) root() *treeNode { return &t.nodes[1] }

// firstSpare returns the lowest index in [lo, hi) whose member is
// eligible with load < cap, or -1 — the tree form of the power_aware
// first-fit scan.
//
//apcvet:noalloc
func (t *memberTree) firstSpare(lo, hi int) int {
	return t.first(lo, hi, func(n treeNode) bool { return n.hasSpare })
}

// firstActSpare returns the lowest index in [lo, hi) whose member is
// eligible with 0 < load < cap, or -1 — the already-active preference of
// the rack packer.
//
//apcvet:noalloc
func (t *memberTree) firstActSpare(lo, hi int) int {
	return t.first(lo, hi, func(n treeNode) bool { return n.hasActSpare })
}

// first descends left-first for the lowest index in [lo, hi) whose leaf
// satisfies pred, pruning subtrees whose aggregate does not.
//
//apcvet:noalloc
func (t *memberTree) first(lo, hi int, pred func(treeNode) bool) int {
	if hi > t.base {
		hi = t.base
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return -1
	}
	return t.firstIn(1, 0, t.base, lo, hi, pred)
}

//apcvet:noalloc
func (t *memberTree) firstIn(node, nodeLo, nodeHi, lo, hi int, pred func(treeNode) bool) int {
	if nodeHi <= lo || hi <= nodeLo || !pred(t.nodes[node]) {
		return -1
	}
	if node >= t.base {
		return nodeLo
	}
	mid := (nodeLo + nodeHi) / 2
	if i := t.firstIn(2*node, nodeLo, mid, lo, hi, pred); i >= 0 {
		return i
	}
	return t.firstIn(2*node+1, mid, nodeHi, lo, hi, pred)
}

// rackCounters is the per-rack occupancy summary the rack policies
// select racks from, and the rack-first drain decision sums, in O(1)
// per rack, maintained by Fleet.touch. Every field counts eligible
// members only.
type rackCounters struct {
	elig     int   // eligible members
	active   int   // with load > 0
	spare    int   // with load < cap
	actSpare int   // with 0 < load < cap
	headroom int64 // Σ max(cap−load, 0)
	load     int64 // Σ load
}

// memberAgg caches one member's last-applied contribution to the rack
// and fleet counters, so touch can diff instead of rescanning.
type memberAgg struct {
	elig     bool
	active   bool
	spare    bool
	actSpare bool
	alive    bool
	load     int
	headroom int64 // max(cap−load, 0)
	capacity int   // max(cap, cores): the shed threshold's capacity
}

// computeAgg derives the member's current contribution.
//
//apcvet:noalloc
func (m *member) computeAgg() memberAgg {
	a := memberAgg{alive: m.alive(), load: m.load, capacity: m.cap}
	if m.cores > a.capacity {
		a.capacity = m.cores
	}
	if m.eligible() {
		a.elig = true
		a.active = m.load > 0
		a.spare = m.load < m.cap
		a.actSpare = m.load > 0 && m.load < m.cap
		if a.spare {
			a.headroom = int64(m.cap - m.load)
		}
	}
	return a
}

// aggLevel says which incremental structures Fleet.touch maintains:
// exactly those some reader of the fleet's configuration consults. It
// is derived from the configuration in build, never configured.
type aggLevel uint8

const (
	// aggNone: a fault-free round_robin fleet. Its picker reads member
	// eligibility directly and never falls back, so nothing reads the
	// tree or the counters.
	aggNone aggLevel = iota
	// aggPolicy: the tree, the rack counters and the fleet headroom —
	// least_loaded, power_aware and the rack policies route from them,
	// and the drain controller decides from them.
	aggPolicy
	// aggAlive: aggPolicy plus the alive counters, which only the fault
	// layer's shedding valve reads. With a fault layer the round_robin
	// fallback and recovery's emergency re-admission read the root too.
	aggAlive
)

// aggFor derives the level a configuration needs.
func aggFor(cfg Config) aggLevel {
	switch {
	case cfg.Faults.Enabled():
		return aggAlive
	case cfg.Policy != RoundRobin:
		return aggPolicy
	}
	return aggNone
}

// touch folds a member's state change (load, cap, drain state, fault
// flags) into whatever incremental structures the fleet keeps. It must
// run after every such change and before the next policy decision.
//
//apcvet:noalloc
func (f *Fleet) touch(m *member) {
	if f.agg != aggNone {
		f.refold(m)
	}
}

// refold is touch's body: it diffs the member's new contribution
// against the cached one into its rack's counters, the fleet headroom
// and (with a fault layer) the alive counters, then updates its tree
// path.
//
//apcvet:noalloc
func (f *Fleet) refold(m *member) {
	old := m.agg
	neu := m.computeAgg()
	m.agg = neu

	rc := &f.rackCnt[m.rack]
	rc.elig += b2i(neu.elig) - b2i(old.elig)
	rc.active += b2i(neu.active) - b2i(old.active)
	rc.spare += b2i(neu.spare) - b2i(old.spare)
	rc.actSpare += b2i(neu.actSpare) - b2i(old.actSpare)
	rc.headroom += neu.headroom - old.headroom
	f.headroom += neu.headroom - old.headroom
	if old.elig {
		rc.load -= int64(old.load)
	}
	if neu.elig {
		rc.load += int64(neu.load)
	}

	if f.agg == aggAlive {
		if old.alive {
			f.aliveCnt--
			f.aliveLoad -= old.load
			f.aliveCap -= old.capacity
		}
		if neu.alive {
			f.aliveCnt++
			f.aliveLoad += neu.load
			f.aliveCap += neu.capacity
		}
	}

	f.tree.update(m.idx)
}

// initTree builds the incremental structures the configuration reads
// after the members exist, folding every member in from a zero
// contribution. f.agg must already be set.
func (f *Fleet) initTree() {
	if f.agg == aggNone {
		return
	}
	f.tree.build(f.members)
	if cap(f.rackCnt) < f.topo.Racks {
		f.rackCnt = make([]rackCounters, f.topo.Racks)
	} else {
		f.rackCnt = f.rackCnt[:f.topo.Racks]
		for i := range f.rackCnt {
			f.rackCnt[i] = rackCounters{}
		}
	}
	f.headroom = 0
	f.aliveCnt, f.aliveLoad, f.aliveCap = 0, 0, 0
	for _, m := range f.members {
		m.agg = memberAgg{}
		f.refold(m)
	}
}

//apcvet:noalloc
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
