package cluster

// Service graphs (DESIGN.md §11): N tiers — each a full Fleet with its
// own servers, racks, policy, faults and overrides — wired by edges
// carrying a deterministic hit-ratio/TTL miss model and fan-out RPC,
// all on ONE shared engine. A request arrives at the root tier (tier
// 0); when a tier resolves it, each outgoing edge performs a cache
// lookup: a hit needs nothing further, a miss issues Fanout backend
// requests into the edge's target tier, and the client's response
// completes only when every request in the resulting tree has resolved
// (fan-out join). Because every tier's events interleave in the shared
// engine's (time, sequence) order, a graph run is exactly as
// deterministic as a single fleet's, and sweeps over graphs stay
// serial≡parallel bit-identical.
//
// The miss model is two-factor and fully seeded:
//
//   - TTL (per edge, optional): the edge tracks, per client
//     connection, when that connection's cache entry was last filled.
//     A lookup with no entry is a compulsory miss; one whose entry is
//     older than TTL is a TTL miss. Any miss refills the entry. With
//     TTL zero the table is bypassed entirely.
//   - Hit ratio (per edge): lookups that pass the TTL check hit with
//     probability HitRatio, drawn from the edge's own salted RNG
//     stream — the same dedicated-stream discipline as fault
//     injection, so adding an edge never perturbs another stream.
//
// Conservation holds across tiers: for every edge,
// Issued = Fanout · Misses, and a non-root tier's Generated count is
// exactly the sum of Issued over its incoming edges. At the client,
// Served + Failed + still-pending joins = root Generated.
//
// Every fleet is a tier of a graph: New builds a one-tier graph and
// hands out its fleet, whose Run and Measure are the graph's. So Run is
// the package's one window-then-drain loop and MeasureIn its one
// warmup → window → collect sequence. Tier 0 takes the caller's seed,
// and without edges the onResolve hook stays nil and the measurement
// carries no Edges or Client, so a one-tier graph adds nothing to the
// fleet it holds (TestGraphSingleTierParity).

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// Seed salts for the graph's dedicated RNG streams, following the
// fault-layer convention (faults.go): non-root tiers and edges derive
// their seeds from the caller's, so tier 0 sees exactly the caller's
// seed.
const (
	graphTierSeedSalt = 0xc4a51dead00d0010 // + tier index, non-root tier fleets
	graphEdgeSeedSalt = 0xc4a51dead00d0020 // + edge index, per-edge hit/miss RNG
)

// TierConfig is one tier of a service graph: a complete fleet
// configuration plus the workload spec describing its request stream.
// For the root tier the spec drives the synthetic generator (or the
// custom Cluster.NewSource); for non-root tiers the arrival process is
// ignored — arrivals are upstream misses — and the spec contributes
// the service-time distribution, connection count and memory accesses
// of the tier's requests (and the rate estimate its packing caps are
// derived from).
type TierConfig struct {
	// Name labels the tier in measurements and reports.
	Name string
	// Cluster is the tier's fleet configuration. Only the root tier may
	// set NewSource; non-root tiers are driven by the graph.
	Cluster Config
	// Spec is the tier's workload description (see type comment).
	Spec workload.Spec
}

// EdgeConfig is one edge of the service graph: requests resolving in
// tier From look up a cache entry and, on a miss, issue Fanout
// requests into tier To.
type EdgeConfig struct {
	From, To int
	// HitRatio is the probability a lookup that passes the TTL check
	// hits; in [0, 1].
	HitRatio float64
	// TTL is the cache-entry lifetime of the per-connection fill table;
	// zero disables the table (pure Bernoulli misses).
	TTL sim.Duration
	// Fanout is how many backend requests one miss issues; 0 is
	// normalized to 1.
	Fanout int
}

// GraphConfig declares a service graph: tiers plus edges. Tier 0 is
// the root (client-facing) tier; edges must form a DAG rooted there.
type GraphConfig struct {
	Tiers []TierConfig
	Edges []EdgeConfig
}

// joinReq tracks one request's position in the fan-out tree: how many
// of its downstream children are still outstanding, whether any part
// of the subtree failed, and — at the root — the client arrival the
// end-to-end latency is measured from. Records are pooled
// (Graph.joins) so steady-state joining allocates nothing.
//
//apcvet:pooled
type joinReq struct {
	parent  *joinReq
	arrival sim.Time
	pending int
	failed  bool
}

// gtier is one tier at runtime: its fleet, the push source feeding it
// (nil at the root), its outgoing edges and the join records of its
// in-flight requests, keyed by request ID. The map's deleted cells are
// reused by later inserts, so the pending set is allocation-free at
// steady state.
type gtier struct {
	name    string
	fl      *Fleet
	push    *workload.PushSource
	out     []*gedge
	pending map[uint64]*joinReq

	// newSource and onResolve are the tier's push-source factory and
	// resolution hook, bound to the tier once and installed at every
	// build.
	newSource func(*sim.Engine, workload.Spec, uint64, func(*workload.Request)) workload.Source
	onResolve func(id uint64, arrival sim.Time, conn int, ok bool)
}

// gedge is one edge at runtime: its target tier, its dedicated RNG
// stream, the per-connection TTL fill table, and the conservation
// counters.
type gedge struct {
	cfg    EdgeConfig
	fanout int
	to     *gtier
	rng    *stats.RNG
	fill   map[int]sim.Time

	lookups   uint64
	misses    uint64
	ttlMisses uint64
	issued    uint64
}

// Graph is a service graph of fleets on one shared engine.
type Graph struct {
	eng   *sim.Engine
	cfg   GraphConfig
	tiers []*gtier
	edges []*gedge

	clientServed uint64
	clientFailed uint64
	clientLat    *stats.Histogram

	joins sim.Pool[joinReq]
}

// NewGraph assembles a service graph on a fresh engine: each tier's
// fleet is built in tier order (tier 0 with the caller's seed, every
// later tier with a salted derivative), then the edges are wired in
// config order.
func NewGraph(cfg GraphConfig, seed uint64) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{eng: sim.NewEngine()}
	g.build(cfg, seed)
	return g, nil
}

// build assembles (or, on Reset, reassembles) the graph in a fixed
// order — tiers first, in index order, then edges — so a rebuilt graph
// schedules the identical initial event sequence a fresh one would. cfg
// has passed Validate, and on a reset fits g.
func (g *Graph) build(cfg GraphConfig, seed uint64) {
	g.cfg = cfg
	fresh := g.tiers == nil
	if fresh {
		g.tiers = make([]*gtier, len(cfg.Tiers))
		for i := range g.tiers {
			g.tiers[i] = &gtier{}
		}
		g.edges = make([]*gedge, len(cfg.Edges))
		for i := range g.edges {
			g.edges[i] = &gedge{}
		}
	}
	wired := len(cfg.Edges) > 0
	g.clientServed, g.clientFailed = 0, 0
	if wired {
		if g.clientLat == nil {
			g.clientLat = stats.NewLatencyHistogram()
		} else {
			g.clientLat.Reset()
		}
	}
	for i, tc := range cfg.Tiers {
		t := g.tiers[i]
		t.name = tc.Name
		t.out = t.out[:0]
		tseed := seed
		fcfg := tc.Cluster
		if i > 0 {
			tseed = seed ^ (graphTierSeedSalt + uint64(i))
			// Non-root tiers are fed by upstream misses: install the push
			// source, reusing its request pool across resets.
			if t.newSource == nil {
				t.newSource = func(eng *sim.Engine, spec workload.Spec, s uint64, sink func(*workload.Request)) workload.Source {
					if t.push == nil {
						t.push = workload.NewPushSource(eng, spec, s, sink)
					} else {
						t.push.Reset(spec, s)
					}
					return t.push
				}
			}
			fcfg.NewSource = t.newSource
		}
		if t.fl == nil {
			t.fl = &Fleet{g: g, eng: g.eng}
		}
		topo, _ := fcfg.admit(tc.Spec) // Validate has passed
		t.fl.build(fcfg, topo, tc.Spec, tseed)
		if wired {
			// The hook is what turns completions into lookups; without
			// edges it stays nil.
			if t.onResolve == nil {
				tier := t
				t.onResolve = func(id uint64, arrival sim.Time, conn int, ok bool) {
					g.resolve(tier, id, arrival, conn, ok)
				}
			}
			t.fl.onResolve = t.onResolve
			if t.pending == nil {
				t.pending = make(map[uint64]*joinReq)
			} else {
				for k := range t.pending {
					delete(t.pending, k)
				}
			}
		}
	}
	for i, ec := range cfg.Edges {
		e := g.edges[i]
		fanout := ec.Fanout
		if fanout < 1 {
			fanout = 1
		}
		e.cfg, e.fanout = ec, fanout
		e.to = g.tiers[ec.To]
		if eseed := seed ^ (graphEdgeSeedSalt + uint64(i)); e.rng == nil {
			e.rng = stats.NewRNG(eseed)
		} else {
			e.rng.Reseed(eseed)
		}
		if e.cfg.TTL > 0 {
			if e.fill == nil {
				e.fill = make(map[int]sim.Time)
			} else {
				for k := range e.fill {
					delete(e.fill, k)
				}
			}
		}
		e.lookups, e.misses, e.ttlMisses, e.issued = 0, 0, 0, 0
		g.tiers[ec.From].out = append(g.tiers[ec.From].out, e)
	}
}

// Reset rewinds the graph to the state NewGraph(cfg, seed) would have
// produced, reusing the engine arena (Engine.Reset restarts the clock
// at zero with slot numbering matching a fresh engine's), every tier's
// fleet with its machines rewound in place (see Fleet.build), the
// push sources and their request pools, the edges' RNGs, the join pool
// and the pending maps. Only the shape is pinned (see fits). A reset
// graph is byte-identical to a fresh one.
func (g *Graph) Reset(cfg GraphConfig, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The shape is checked before any state is torn down.
	if !g.fits(cfg) {
		return fmt.Errorf("cluster: graph Reset needs the original shape: %d tiers, %d edges and each tier's topology and member count",
			len(g.tiers), len(g.edges))
	}
	g.reset(cfg, seed)
	return nil
}

// reset is Reset for a cfg that has passed Validate and fits g.
func (g *Graph) reset(cfg GraphConfig, seed uint64) {
	g.eng.Reset()
	g.build(cfg, seed)
}

// fits reports whether g can be rewound to cfg, which has passed
// Validate: the same tier and edge counts, and every tier's fleet the
// same topology and member count, because the balancer's rack wiring is
// positional. Everything else — policies, targets, per-member configs,
// fault setups, edge models — is rebuilt by a reset. It is the one rule
// behind both Reset and the keep's choice of an idle graph.
func (g *Graph) fits(cfg GraphConfig) bool {
	if len(cfg.Tiers) != len(g.tiers) || len(cfg.Edges) != len(g.edges) {
		return false
	}
	for i, tc := range cfg.Tiers {
		topo, _ := tc.Cluster.admit(tc.Spec) // Validate has passed
		fl := g.tiers[i].fl
		if topo != fl.topo || len(tc.Cluster.Members) != len(fl.members) {
			return false
		}
	}
	return true
}

// GraphReuse draws graphs for the points of a sweep: the graph it holds,
// reset in place, when the next point's shape fits it; otherwise an idle
// graph of that shape from the process-wide keep, reset; and only when
// neither fits, a new build. A reset rewinds every member's machine
// rather than reassembling it, so a point whose shape some earlier point
// of this or any earlier sweep has built costs no machine assembly at
// all (TestGraphReuseRewindAllocs). A single fleet is a one-tier graph.
// A graph that no longer fits the next point goes back to the keep, and
// Release hands back the one held. One GraphReuse serves one sweep
// worker — it is not safe for concurrent use — and because a reset is
// byte-identical to a fresh build, sweeps that reuse graphs stay
// bit-identical at any parallelism and whatever ran before them in the
// process. The zero value is ready.
type GraphReuse struct {
	g *Graph
}

// Graph returns a graph for (cfg, seed), reset or newly built. It
// invalidates every graph, fleet and machine r returned before.
func (r *GraphReuse) Graph(cfg GraphConfig, seed uint64) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.g == nil || !r.g.fits(cfg) {
		old := r.g
		r.g = takeIdle(cfg)
		if old != nil {
			keep(old)
		}
	}
	if r.g != nil {
		r.g.reset(cfg, seed)
		return r.g, nil
	}
	g, err := NewGraph(cfg, seed)
	if err != nil {
		return nil, err
	}
	r.g = g
	return g, nil
}

// Draw makes r hold the idle graph the keep would hand a point of cfg's
// shape, if r holds none and one fits; it resets nothing, so the next
// Graph call rewinds it. A sweep that draws for its workers one after
// another before they start decides which worker gets which idle graph
// without regard to thread timing.
func (r *GraphReuse) Draw(cfg GraphConfig) {
	if r.g == nil && cfg.Validate() == nil {
		r.g = takeIdle(cfg)
	}
}

// Release hands the graph r holds back to the keep for the next
// GraphReuse whose point fits it, leaving r empty. Nothing r returned
// may be used afterwards; results already read out of it (measurements,
// watts, latencies) are the caller's.
func (r *GraphReuse) Release() {
	if r.g != nil {
		keep(r.g)
		r.g = nil
	}
}

// The keep holds the idle graphs every GraphReuse in the process draws
// from, oldest first, so a process that runs scenarios or experiments
// more than once assembles each shape of machine once: a later run
// rewinds the machines an earlier one left behind. Two rules bound it.
// Its graphs hold at most keepMembers() members in all, so a graph
// larger than that is never kept and a new one pushes out the oldest
// until it fits; and a graph that keepStale takes in a row passed over
// is dropped, so a shape the process stopped running does not stay
// resident. A process that runs one sweep once builds exactly what it
// built without the keep.
var (
	idleMu sync.Mutex
	idle   []idleGraph
	// takes counts takeIdle calls; each idle graph records the count it
	// was kept at.
	takes uint64
)

type idleGraph struct {
	g       *Graph
	members int
	at      uint64
}

// keepStale is how many takes an idle graph may sit through unmatched.
const keepStale = 64

// keepMembers is the member budget: room for two 8-member graphs per
// CPU (a sweep worker per CPU at Parallelism -1, or two one-machine
// graphs each for the points that compare two configurations). It is a
// heuristic: a sweep with more workers or larger graphs still runs, and
// the graphs past the budget are dropped and built again next time.
func keepMembers() int { return 16 * runtime.GOMAXPROCS(0) }

// takeIdle removes from the keep, and returns, the most recently kept
// graph that fits cfg; nil when none does. cfg has passed Validate.
func takeIdle(cfg GraphConfig) *Graph {
	idleMu.Lock()
	defer idleMu.Unlock()
	takes++
	idle = slices.DeleteFunc(idle, func(e idleGraph) bool { return takes-e.at > keepStale })
	for i := len(idle) - 1; i >= 0; i-- {
		if g := idle[i].g; g.fits(cfg) {
			idle = slices.Delete(idle, i, i+1)
			return g
		}
	}
	return nil
}

// keep adds g to the keep, first dropping the oldest graphs until g fits
// the member budget; a graph beyond the whole budget is not kept. A kept
// graph lets go of everything its last run brought in from outside — the
// configuration, the spec, a source the configuration supplied (a trace
// replay and its reader) and the engine's pending events — since the
// reset that takes it out rebuilds them all.
func keep(g *Graph) {
	n := g.members()
	budget := keepMembers()
	if n > budget {
		return
	}
	g.idle()
	idleMu.Lock()
	defer idleMu.Unlock()
	held := n
	for _, e := range idle {
		held += e.members
	}
	drop := 0
	for ; held > budget; drop++ {
		held -= idle[drop].members
	}
	idle = append(slices.Delete(idle, 0, drop), idleGraph{g: g, members: n, at: takes})
}

// members is the graph's machine count over all tiers.
func (g *Graph) members() int {
	n := 0
	for _, t := range g.tiers {
		n += len(t.fl.members)
	}
	return n
}

// idle drops g's references to its last run's inputs (see keep).
func (g *Graph) idle() {
	g.eng.Reset()
	g.cfg = GraphConfig{}
	for _, t := range g.tiers {
		t.fl.idle()
	}
}

// Engine returns the shared engine all tiers run on.
func (g *Graph) Engine() *sim.Engine { return g.eng }

// Tiers returns the tier count.
func (g *Graph) Tiers() int { return len(g.tiers) }

// TierFleet returns tier i's fleet (for tests and benchmarks; the
// fleet must keep being driven through the graph's Run).
func (g *Graph) TierFleet(i int) *Fleet { return g.tiers[i].fl }

// newJoin takes a zeroed join record from the pool.
//
//apcvet:noalloc
func (g *Graph) newJoin() *joinReq {
	jr, fresh := g.joins.Get()
	if !fresh {
		*jr = joinReq{}
	}
	return jr
}

// putJoin returns a closed join record to the pool; the caller must
// not touch it afterwards (the next newJoin may reissue it).
//
//apcvet:poolput
//apcvet:noalloc
func (g *Graph) putJoin(jr *joinReq) {
	g.joins.Put(jr)
}

// resolve is the onResolve hook of every tier: one request of tier t
// reached its final state. It closes the request's join record,
// performs the outgoing lookups and, on misses, issues the fan-out
// children — synchronously, at this engine instant, so downstream
// arrivals carry zero artificial delay beyond what the target tier's
// own delivery path (ToR hops, queues) imposes.
//
//apcvet:noalloc
func (g *Graph) resolve(t *gtier, id uint64, arrival sim.Time, conn int, ok bool) {
	jr := t.pending[id]
	if jr != nil {
		delete(t.pending, id)
	} else {
		// Root-tier requests enter the graph here, at their own
		// resolution: nothing upstream registered them.
		jr = g.newJoin()
		jr.arrival = arrival
	}
	// Guard reference: hold the join open until every child is issued,
	// so a child resolving synchronously (a shed, for instance) cannot
	// complete the join mid-loop.
	jr.pending++
	if !ok {
		// A failed request produced no response, so no lookups happen
		// downstream of it; the failure propagates up the join tree.
		jr.failed = true
	} else {
		now := g.eng.Now()
		for _, e := range t.out {
			e.lookups++
			miss, ttlMiss := false, false
			if e.cfg.TTL > 0 {
				ft, present := e.fill[conn]
				if !present {
					miss = true // compulsory: first lookup on this connection
				} else if now-ft >= e.cfg.TTL {
					miss, ttlMiss = true, true
				}
			}
			if !miss && e.rng.Float64() >= e.cfg.HitRatio {
				miss = true
			}
			if !miss {
				continue
			}
			e.misses++
			if ttlMiss {
				e.ttlMisses++
			}
			if e.cfg.TTL > 0 {
				e.fill[conn] = now
			}
			for k := 0; k < e.fanout; k++ {
				e.issued++
				jr.pending++
				child := g.newJoin()
				child.parent = jr
				child.arrival = now
				// Emit's ID is the source's Generated() count; register the
				// child BEFORE emitting, because the target tier can resolve
				// the request synchronously (shedding under overload).
				childID := e.to.push.Generated()
				e.to.pending[childID] = child
				e.to.push.Emit(conn)
			}
		}
	}
	jr.pending--
	if jr.pending == 0 {
		g.finish(jr)
	}
}

// finish completes a join whose subtree has fully resolved, bubbling
// the completion up the parent chain; at the root it records the
// client-observed outcome (success only when every request in the tree
// succeeded, latency from root arrival to last resolution).
//
//apcvet:noalloc
func (g *Graph) finish(jr *joinReq) {
	for {
		parent, failed := jr.parent, jr.failed
		if parent == nil {
			if failed {
				g.clientFailed++
			} else {
				g.clientServed++
				g.clientLat.AddDuration(g.eng.Now() - jr.arrival)
			}
			g.putJoin(jr)
			return
		}
		g.putJoin(jr)
		parent.pending--
		if failed {
			parent.failed = true
		}
		if parent.pending > 0 {
			return
		}
		jr = parent
	}
}

// inFlight sums every tier's in-flight count, so the drain loop cannot
// declare the graph empty while any tier still holds work.
func (g *Graph) inFlight() int {
	n := 0
	for _, t := range g.tiers {
		n += t.fl.inFlightTotal()
	}
	return n
}

// Run generates root-tier load for d of virtual time, then drains every
// tier until nothing is in flight, up to server.DrainCap of extra
// virtual time, stepping the engine 1 ms at a time. Non-root sources
// have no arrival chain to start. Misses discovered during the drain
// still issue their backend requests: the drain loop keeps going until
// every tier is empty or the cap trips. Requests still in flight when
// the cap trips are snapshotted into the per-member dropped counters
// (Fleet.snapshotDropped).
func (g *Graph) Run(d sim.Duration) {
	stop := g.eng.Now() + d
	for _, t := range g.tiers {
		t.fl.gen.Start(stop)
	}
	g.eng.Run(stop)
	deadline := g.eng.Now() + server.DrainCap
	for g.inFlight() > 0 && g.eng.Now() < deadline {
		g.eng.Run(g.eng.Now() + sim.Millisecond)
	}
	trunc := g.inFlight() > 0 && g.eng.Pending() > 0
	for _, t := range g.tiers {
		t.fl.snapshotDropped(trunc)
	}
}

// TierMeasurement is one tier's outcome: its name plus the full fleet
// measurement, per-server and per-rack detail included.
type TierMeasurement struct {
	Name  string      `json:"name"`
	Fleet Measurement `json:"fleet"`
}

// EdgeStats is one edge's measured outcome with its configuration,
// satisfying the conservation identity Issued = Fanout · Misses and
// Hits = Lookups − Misses.
type EdgeStats struct {
	From string `json:"from"`
	To   string `json:"to"`

	HitRatio float64      `json:"hit_ratio"`
	TTL      sim.Duration `json:"ttl_ns,omitempty"`
	Fanout   int          `json:"fanout"`

	Lookups   uint64 `json:"lookups"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	TTLMisses uint64 `json:"ttl_misses,omitempty"`
	Issued    uint64 `json:"issued"`

	// MeasuredHitRate is Hits/Lookups — below the configured HitRatio
	// when TTL expiry and compulsory misses bite.
	MeasuredHitRate float64 `json:"measured_hit_rate"`
}

// ClientStats is the end-to-end view at the graph's client: a request
// is served only when its whole fan-out tree succeeded, and its
// latency runs from root arrival to the last resolution in the tree.
type ClientStats struct {
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`

	MeanLatency float64 `json:"mean_latency_s"`
	P50Latency  float64 `json:"p50_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`
	P999Latency float64 `json:"p999_latency_s"`
}

// GraphMeasurement is the graph-wide outcome of one measured window.
// Edges and Client are nil on edgeless (single-tier) graphs, so those
// marshal as their tiers alone.
type GraphMeasurement struct {
	Tiers  []TierMeasurement `json:"tiers"`
	Edges  []EdgeStats       `json:"edges,omitempty"`
	Client *ClientStats      `json:"client,omitempty"`
}

// Measure runs the graph through the standard warmup → instrument →
// measure sequence: warmup once, every tier's instrumentation attached
// at the same instant, one shared measured window, every tier
// collected against it. Call at most once per build or Reset. The
// result has storage of its own, so it outlives the graph's next use.
func (g *Graph) Measure(warmup, duration sim.Duration) GraphMeasurement {
	s := MakeSlab(g.slabSize())
	return g.MeasureIn(&s, warmup, duration)
}

// MeasureIn is Measure collecting the result into s rather than into
// storage of its own: a sweep that sizes one Slab for all its points
// measures each of them without allocating.
func (g *Graph) MeasureIn(s *Slab, warmup, duration sim.Duration) GraphMeasurement {
	g.Run(warmup)
	for _, t := range g.tiers {
		t.fl.measureBegin()
	}
	g.Run(duration)

	out := GraphMeasurement{Tiers: take(&s.tiers, len(g.tiers)), Edges: take(&s.edges, len(g.edges))}
	for i, t := range g.tiers {
		out.Tiers[i].Name = t.name
		t.fl.measureCollect(&out.Tiers[i].Fleet, s)
	}
	if len(g.edges) == 0 {
		return out
	}
	for i, e := range g.edges {
		es := &out.Edges[i]
		*es = EdgeStats{
			From:      g.tiers[e.cfg.From].name,
			To:        e.to.name,
			HitRatio:  e.cfg.HitRatio,
			TTL:       e.cfg.TTL,
			Fanout:    e.fanout,
			Lookups:   e.lookups,
			Hits:      e.lookups - e.misses,
			Misses:    e.misses,
			TTLMisses: e.ttlMisses,
			Issued:    e.issued,
		}
		if e.lookups > 0 {
			es.MeasuredHitRate = float64(e.lookups-e.misses) / float64(e.lookups)
		}
	}
	out.Client = &take(&s.clients, 1)[0]
	*out.Client = ClientStats{
		Served:      g.clientServed,
		Failed:      g.clientFailed,
		MeanLatency: g.clientLat.Mean(),
		P50Latency:  g.clientLat.Quantile(0.50),
		P99Latency:  g.clientLat.Quantile(0.99),
		P999Latency: g.clientLat.Quantile(0.999),
	}
	return out
}
