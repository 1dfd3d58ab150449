package scenario

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// Point is the measured outcome of one scenario operating point.
type Point struct {
	// Axis is the sweep-axis value this point was evaluated at (0 for
	// unswept scenarios; the value's index for the string-valued policy
	// axis).
	Axis float64 `json:"axis"`
	// AxisLabel names the axis value on string-valued axes ("policy");
	// empty on numeric axes.
	AxisLabel string `json:"axis_label,omitempty"`
	// Workload names the effective request stream.
	Workload string `json:"workload"`

	OfferedQPS float64 `json:"offered_qps,omitempty"`
	Served     uint64  `json:"served"`
	Generated  uint64  `json:"generated"`
	Dropped    uint64  `json:"dropped"`

	// Client-observed latencies, seconds.
	MeanLatency float64 `json:"mean_latency_s"`
	P50Latency  float64 `json:"p50_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`

	// Average watts over the measured window.
	SoCWatts   float64 `json:"soc_w"`
	DRAMWatts  float64 `json:"dram_w"`
	TotalWatts float64 `json:"total_w"`

	// Core residencies over the measured window.
	CC0Residency    float64 `json:"cc0_residency"`
	CC1Residency    float64 `json:"cc1_residency"`
	AllIdle         float64 `json:"all_idle"`
	AllIdleCensored float64 `json:"all_idle_censored"`

	// PC1A statistics. Nil on configurations without an APMU (Cshallow,
	// Cdeep), so JSON consumers can distinguish "not applicable" from a
	// genuine zero measurement. For fleets these are the mean residency
	// over servers and the summed entries.
	PC1AResidency *float64 `json:"pc1a_residency,omitempty"`
	PC1AEntries   *uint64  `json:"pc1a_entries,omitempty"`

	// Servers is the per-server breakdown for fleets of more than one
	// server. It stays empty for single-machine scenarios AND for
	// 1-server fleets — a 1-server fleet is byte-for-byte the single
	// machine (the parity contract), so its aggregate row already is the
	// server.
	Servers []cluster.ServerStats `json:"servers,omitempty"`

	// Racks is the per-rack-zone breakdown for multi-rack fleets. It
	// stays empty for flat fleets (racks ≤ 1), whose aggregate row
	// already is the only zone — which keeps flat output byte-identical
	// to the pre-topology fleet (TestRackFlatParity).
	Racks []cluster.RackStats `json:"racks,omitempty"`

	// Tiers is the per-tier breakdown for multi-tier service graphs, in
	// tier order. It stays empty for cluster and single-machine
	// scenarios AND for one-tier graphs — a one-tier graph is
	// byte-for-byte the cluster block (TestTiersSingleTierParity), so
	// its aggregate row already is the tier.
	Tiers []cluster.TierMeasurement `json:"tiers,omitempty"`
	// Edges is the per-edge cache and fan-out accounting; empty without
	// edges. TierEdges would be a misnomer: an edge belongs to the
	// graph, not a tier.
	Edges []cluster.EdgeStats `json:"edges,omitempty"`
	// Client is the end-to-end client view of a multi-tier graph: a
	// root arrival counts served only when its whole miss tree
	// resolves, and its latency spans that tree. Nil without edges —
	// the fleet's own latencies already are the client view.
	Client *cluster.ClientStats `json:"client,omitempty"`

	// Fault-layer outcomes (cluster.faults block; see
	// cluster.Measurement for the semantics — OK + Failed + Shed =
	// Generated once the fleet drains). All zero, and therefore absent
	// from the JSON, without a fault layer — the parity contract.
	OK          uint64  `json:"ok,omitempty"`
	Failed      uint64  `json:"failed,omitempty"`
	Retried     uint64  `json:"retried,omitempty"`
	Hedged      uint64  `json:"hedged,omitempty"`
	Shed        uint64  `json:"shed,omitempty"`
	Crashes     uint64  `json:"crashes,omitempty"`
	Brownouts   uint64  `json:"brownouts,omitempty"`
	Partitions  uint64  `json:"partitions,omitempty"`
	GoodputQPS  float64 `json:"goodput_qps,omitempty"`
	RecoveryP50 float64 `json:"recovery_p50_s,omitempty"`
	RecoveryP99 float64 `json:"recovery_p99_s,omitempty"`

	// TruncatedDrain is the subset of Dropped still in flight when the
	// post-run drain gave up (leaked or unreachable work), as opposed
	// to merely slow; zero on clean runs.
	TruncatedDrain uint64 `json:"truncated_drain,omitempty"`
}

// Result is a completed scenario run: the spec that produced it plus one
// Point per axis value. It implements experiments.Result and
// experiments.CSVWriter, so the CLI treats scenarios and built-in
// experiments uniformly.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// Axis is the swept axis name ("" when unswept).
	Axis   string  `json:"axis,omitempty"`
	Points []Point `json:"points"`
}

// Run evaluates the scenario under the given options (duration, seed and
// parallelism; the scenario's own duration_ms/seed take precedence).
// Sweep points fan out exactly like built-in experiment sweeps: each
// point is a pure function of (options, point), so results are
// bit-identical at any parallelism.
//
// Every open-loop point runs through one wiring, the service graph
// (runGraph): asGraph turns a point with no block into a one-tier graph
// of one round_robin server, and a cluster block into the one tier
// holding it — shapes the parity suites prove byte-identical
// (TestClusterSingleServerParity, TestTiersSingleTierParity).
// Closed-loop sysbench is the one exception: its clients bind to one
// server's Submit, so it keeps the single-machine wiring
// (runClosedLoop).
func (s Scenario) Run(opt experiments.Options) (*Result, error) {
	if err := s.validate(true); err != nil {
		return nil, err
	}
	opt = s.EffectiveOptions(opt)
	axis := ""
	if s.Sweep != nil {
		axis = s.Sweep.Axis
	}

	// Resolve every point up front so a bad rate or trace fails before
	// any simulation runs; validate has checked everything else. A
	// synthetic point's root spec is built here once and carried to the
	// run.
	type job struct {
		axis  float64
		label string
		sc    Scenario
		spec  workload.Spec
	}
	kind, _ := soc.ParseConfigKind(s.Config)
	values := s.values()
	jobs := make([]job, len(values))
	for i, v := range values {
		pt, label := s.at(axis, v), ""
		if axis == AxisPolicy {
			label = s.Sweep.Policies[i]
		}
		g, _ := pt.asGraph()
		var spec workload.Spec
		if pt.Workload.Service == "trace" {
			if err := pt.Workload.Trace.preflight(); err != nil {
				return nil, s.pointErr(axis, v, err)
			}
		} else {
			var err error
			if spec, err = pt.Workload.spec(soc.DefaultConfig(kind).CoreCount * g.Tiers[0].Servers); err != nil {
				return nil, s.pointErr(axis, v, err)
			}
		}
		if pt.Workload.Service != "sysbench" {
			pt = g
		}
		jobs[i] = job{axis: v, label: label, sc: pt, spec: spec}
	}

	res := &Result{Scenario: s, Axis: axis}
	// Each sweep worker carries one GraphReuse: consecutive points that
	// keep the shape (the common case — the axis sweeps QPS or a policy
	// knob, or an edge's hit ratio) reset one graph instead of rebuilding
	// N machines per point, the worker's first point draws a graph of its
	// shape that an earlier run left in the process-wide keep, and the
	// worker hands its graph back to the keep when the sweep ends, so a
	// process that runs scenarios repeatedly assembles each shape once
	// (within the keep's bounds; see cluster.GraphReuse).
	// A reset is byte-identical to a fresh build, so results stay
	// bit-identical at any parallelism, whatever ran before.
	res.Points = experiments.SweepWith(opt, jobs,
		func() *cluster.GraphReuse { return new(cluster.GraphReuse) },
		(*cluster.GraphReuse).Release,
		func(reuse *cluster.GraphReuse, j job) Point {
			if j.sc.Workload.Service == "sysbench" {
				return runClosedLoop(j.sc, j.axis, opt)
			}
			return runGraph(j.sc, j.spec, j.axis, j.label, opt, reuse)
		})
	return res, nil
}

// asGraph returns an applied open-loop point as the tier list runGraph
// wires, plus the block its point errors name: no block becomes one
// tier of one round_robin server (the single machine, block ""), a
// cluster block becomes the one tier holding it (block "cluster"), and
// a tiers block stays as it is (block "tiers"). Rendering reads the
// scenario as written (Result.Scenario), so the rewrite never shows in
// the output.
func (s Scenario) asGraph() (Scenario, string) {
	switch {
	case s.Cluster != nil:
		s.Tiers = []Tier{{Cluster: *s.Cluster}}
		s.Cluster = nil
		return s, "cluster"
	case len(s.Tiers) == 0:
		s.Tiers = []Tier{{Cluster: Cluster{Servers: 1, Policy: "round_robin"}}}
		return s, ""
	}
	return s, "tiers"
}

// values returns the sweep's point values: Sweep.Values, or on the
// policy axis the indices into Sweep.Policies that at resolves. An
// unswept scenario has the one point 0.
func (s *Scenario) values() []float64 {
	switch {
	case s.Sweep == nil:
		return []float64{0}
	case s.Sweep.Axis == AxisPolicy:
		vs := make([]float64, len(s.Sweep.Policies))
		for i := range vs {
			vs[i] = float64(i)
		}
		return vs
	}
	return s.Sweep.Values
}

// graphConfig converts an applied point in asGraph's tier-list form to
// the cluster layer's graph configuration: every setting, but no spec,
// member or source. Validate checks each point through it, and
// runConfig completes it for the run.
func (s *Scenario) graphConfig() (cluster.GraphConfig, error) {
	gcfg := cluster.GraphConfig{
		Tiers: make([]cluster.TierConfig, len(s.Tiers)),
		Edges: make([]cluster.EdgeConfig, len(s.Edges)),
	}
	for i := range s.Tiers {
		t := &s.Tiers[i]
		pol, err := cluster.ParsePolicy(t.Policy)
		if err != nil {
			return gcfg, err
		}
		// An absent racks field is one rack. The topology is always
		// explicit, so the cluster checks its shape before any member
		// exists; Flat(N) assembles exactly what the zero topology does
		// (TestRackFlatParity).
		r := t.Racks
		if r == 0 {
			r = 1
		}
		gcfg.Tiers[i] = cluster.TierConfig{
			Name: t.Name,
			Cluster: cluster.Config{
				Policy:        pol,
				P99Target:     us(t.P99TargetUS),
				Topology:      cluster.Topology{Racks: r, ServersPerRack: t.Servers / r},
				TorLatency:    us(t.TorLatencyUS),
				DrainHold:     us(t.DrainHoldUS),
				FeedbackEpoch: us(t.FeedbackEpochUS),
				Faults:        t.Faults.config(),
			},
		}
	}
	for i, e := range s.Edges {
		gcfg.Edges[i] = cluster.EdgeConfig{
			From:     s.tierIndex(e.From),
			To:       s.tierIndex(e.To),
			HitRatio: e.HitRatio,
			TTL:      us(e.TTLUS),
			Fanout:   e.Fanout,
		}
	}
	return gcfg, nil
}

// runConfig completes a point's graphConfig for the run: every tier's
// members, the root tier's spec rootSpec, and each backend tier's spec
// sized by the miss rate expected to flow into it.
func (s *Scenario) runConfig(kind soc.ConfigKind, rootSpec workload.Spec) (cluster.GraphConfig, error) {
	gcfg, err := s.graphConfig()
	if err != nil {
		return gcfg, err
	}
	cores := soc.DefaultConfig(kind).CoreCount
	// Expected per-tier arrival rates: the root rate scaled by each
	// edge's miss probability and fan-out. The graph is a DAG, so
	// |tiers| relaxation rounds reach the fixpoint.
	rates := make([]float64, len(gcfg.Tiers))
	rates[0] = rootSpec.MeanQPS()
	for range gcfg.Tiers {
		next := make([]float64, len(rates))
		next[0] = rates[0]
		for _, e := range gcfg.Edges {
			next[e.To] += rates[e.From] * (1 - e.HitRatio) * float64(max(e.Fanout, 1))
		}
		rates = next
	}
	for i := range gcfg.Tiers {
		tc := &gcfg.Tiers[i]
		tc.Spec = rootSpec
		if rate := rates[i]; i > 0 {
			if rate <= 0 {
				rate = 1 // a hit-ratio-1 point never misses; the rate only names the spec
			}
			tc.Spec = tierSpecs[s.Tiers[i].Service](rate, cores)
		}
		tc.Cluster.Members = s.memberConfigs(&s.Tiers[i].Cluster, kind)
	}
	return gcfg, nil
}

// serverConfig merges server i's configuration in fleet block c (nil
// for the single machine): evaluation defaults, then the scenario-level
// Server overrides (the base of every tier's servers), then server i's
// entry in c's ServerOverrides.
func (s *Scenario) serverConfig(c *Cluster, i int) server.Config {
	cfg := server.DefaultConfig()
	s.Server.apply(&cfg)
	if c != nil {
		if ov, ok := c.ServerOverrides[strconv.Itoa(i)]; ok {
			ov.apply(&cfg)
		}
	}
	return cfg
}

// memberConfigs builds one tier's per-server configurations.
func (s *Scenario) memberConfigs(c *Cluster, kind soc.ConfigKind) []cluster.MemberConfig {
	members := make([]cluster.MemberConfig, c.Servers)
	for i := range members {
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(kind), Server: s.serverConfig(c, i)}
	}
	return members
}

// tierSpecs synthesizes, per backend service, the workload spec of a
// tier at the expected miss rate flowing into it: the one list of the
// services a backend tier may name. The graph's push sources never
// sample the arrival process — upstream misses drive emission — but
// the spec still names the tier's stream, sizes its connections and
// supplies the service-time distribution the balancer derives packing
// caps from.
var tierSpecs = map[string]func(rate float64, cores int) workload.Spec{
	"memcached": func(rate float64, _ int) workload.Spec { return workload.Memcached(rate) },
	"mysql": func(rate float64, cores int) workload.Spec {
		return workload.MySQL(rate*workload.MySQL(1, cores).Service.Mean()/float64(cores), cores)
	},
	"kafka": func(rate float64, cores int) workload.Spec {
		return workload.Kafka(rate*workload.Kafka(1, cores).Service.Mean()/float64(cores), cores)
	},
}

// runGraph wires one applied open-loop point, in asGraph's tier-list
// form, with spec as the root tier's synthetic workload (unused on a
// trace point): every tier a full fleet on one shared engine, edges
// carrying misses downstream (see cluster.Graph), measured through the
// built-in experiments' warmup/window sequence. A one-tier graph of one
// round_robin server assembles event-for-event the single-machine
// wiring, so an unswept point with no overrides reproduces the built-in
// experiments bit for bit (TestScenarioMatchesHandWiredRun).
func runGraph(sc Scenario, spec workload.Spec, axisValue float64, axisLabel string, opt experiments.Options, reuse *cluster.GraphReuse) Point {
	kind, _ := soc.ParseConfigKind(sc.Config)
	must := func(err error) {
		if err != nil {
			// Unreachable after Run's checks (validate, preflight, the
			// rate); a panic here is a missing validation rule, not a
			// user error.
			panic(fmt.Sprintf("scenario %q: %v", sc.Name, err))
		}
	}

	// A trace point replays a recorded stream at the root tier instead
	// of a synthetic generator: the spec comes from the trace header (so
	// packing caps and report fields match the recorded workload bit for
	// bit) and the root tier's source factory binds a Replay over the
	// open file. The file is opened and closed per point — no descriptor
	// outlives the measurement, and the graphs a worker resets and the
	// keep retains stay file-agnostic.
	rootSpec := spec
	var newSource func(*sim.Engine, workload.Spec, uint64, func(*workload.Request)) workload.Source
	if sc.Workload.Service == "trace" {
		t := sc.Workload.Trace
		f, err := os.Open(t.Path)
		must(err)
		defer f.Close()
		rd, err := replay.NewReader(f)
		must(err)
		rootSpec = rd.Header().Spec()
		rp, err := replay.New(rd, replay.Options{TimeScale: t.TimeScale, Loop: t.Loop})
		must(err)
		newSource = func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
			must(rp.Bind(eng, sink))
			return rp
		}
	}

	gcfg, err := sc.runConfig(kind, rootSpec)
	must(err)
	gcfg.Tiers[0].Cluster.NewSource = newSource
	g, err := reuse.Graph(gcfg, opt.Seed)
	must(err)
	gm := g.Measure(opt.Warmup(), opt.Duration)

	p := Point{
		Axis:       axisValue,
		AxisLabel:  axisLabel,
		Workload:   rootSpec.Name,
		OfferedQPS: rootSpec.MeanQPS(),
	}
	if len(gcfg.Edges) == 0 {
		// One-tier graph: the tier's fleet is the whole point, so its
		// measurement is the aggregate row.
		m := &gm.Tiers[0].Fleet
		p.Served = m.Served
		p.Generated = m.Generated
		p.Dropped = m.Dropped
		p.MeanLatency = m.MeanLatency
		p.P50Latency = m.P50Latency
		p.P99Latency = m.P99Latency
		p.SoCWatts = m.SoCWatts
		p.DRAMWatts = m.DRAMWatts
		p.TotalWatts = m.TotalWatts
		p.CC0Residency = m.CC0Residency
		p.CC1Residency = m.CC1Residency
		p.AllIdle = m.AllIdle
		p.AllIdleCensored = m.AllIdleCensored
		p.PC1AResidency = m.PC1AResidency
		p.PC1AEntries = m.PC1AEntries
		p.OK = m.OK
		p.Failed = m.Failed
		p.Retried = m.Retried
		p.Hedged = m.Hedged
		p.Shed = m.Shed
		p.Crashes = m.Crashes
		p.Brownouts = m.Brownouts
		p.Partitions = m.Partitions
		p.GoodputQPS = m.GoodputQPS
		p.RecoveryP50 = m.RecoveryP50
		p.RecoveryP99 = m.RecoveryP99
		p.TruncatedDrain = m.TruncatedDrain
		if sc.Tiers[0].Servers > 1 {
			p.Servers = m.Servers
		}
		p.Racks = m.Racks
		return p
	}

	// Multi-tier: the aggregate row is the client's view — an arrival
	// counts served when its whole miss tree resolves, latency spans the
	// tree — over summed power and fault counters; residencies are
	// server-count-weighted means. The per-tier story lives in p.Tiers.
	p.Served = gm.Client.Served
	p.Generated = gm.Tiers[0].Fleet.Generated
	p.MeanLatency = gm.Client.MeanLatency
	p.P50Latency = gm.Client.P50Latency
	p.P99Latency = gm.Client.P99Latency
	var pc1aSum float64
	var pc1aServers int
	var pc1aEntries uint64
	havePC1A := false
	totalServers := 0
	for ti := range gm.Tiers {
		m := &gm.Tiers[ti].Fleet
		n := sc.Tiers[ti].Servers
		totalServers += n
		p.Dropped += m.Dropped
		p.SoCWatts += m.SoCWatts
		p.DRAMWatts += m.DRAMWatts
		p.TotalWatts += m.TotalWatts
		p.CC0Residency += m.CC0Residency * float64(n)
		p.CC1Residency += m.CC1Residency * float64(n)
		p.AllIdle += m.AllIdle * float64(n)
		p.AllIdleCensored += m.AllIdleCensored * float64(n)
		if m.PC1AResidency != nil {
			havePC1A = true
			pc1aSum += *m.PC1AResidency * float64(n)
			pc1aServers += n
			pc1aEntries += *m.PC1AEntries
		}
		p.OK += m.OK
		p.Failed += m.Failed
		p.Retried += m.Retried
		p.Hedged += m.Hedged
		p.Shed += m.Shed
		p.Crashes += m.Crashes
		p.Brownouts += m.Brownouts
		p.Partitions += m.Partitions
		p.GoodputQPS += m.GoodputQPS
		// Worst-case recovery across tiers: a graph is only as healed as
		// its slowest tier.
		if m.RecoveryP50 > p.RecoveryP50 {
			p.RecoveryP50 = m.RecoveryP50
		}
		if m.RecoveryP99 > p.RecoveryP99 {
			p.RecoveryP99 = m.RecoveryP99
		}
		p.TruncatedDrain += m.TruncatedDrain
	}
	p.CC0Residency /= float64(totalServers)
	p.CC1Residency /= float64(totalServers)
	p.AllIdle /= float64(totalServers)
	p.AllIdleCensored /= float64(totalServers)
	if havePC1A {
		res := pc1aSum / float64(pc1aServers)
		p.PC1AResidency, p.PC1AEntries = &res, &pc1aEntries
	}
	p.Tiers = gm.Tiers
	p.Edges = gm.Edges
	p.Client = gm.Client
	return p
}

// runClosedLoop wires one applied sysbench point onto a fresh system
// and runs the built-in experiments' warmup and measurement-window
// sequence. It is the one point runGraph does not wire: closed-loop
// clients bind to one server's Submit and would bypass any balancer.
func runClosedLoop(sc Scenario, axisValue float64, opt experiments.Options) Point {
	kind, _ := soc.ParseConfigKind(sc.Config)
	sys := soc.New(soc.DefaultConfig(kind))
	srv := server.NewClosedLoop(sys, sc.serverConfig(nil, 0))
	cl := workload.SysbenchOLTP(sys.Engine, sc.Workload.Threads,
		sc.Workload.ThinkMS*1e-3, opt.Seed, srv.Submit)
	cl.Start()

	// Warmup so the measured window starts in steady state — the same
	// formula as the built-in experiments (Options.Warmup). Closed-loop
	// clients issue continuously, so a window is just engine time.
	sys.Engine.Run(sys.Engine.Now() + opt.Warmup())

	win := sys.OpenWindow()
	sys.Engine.Run(sys.Engine.Now() + opt.Duration)
	cl.Stop()

	p := Point{
		Axis:         axisValue,
		Workload:     fmt.Sprintf("sysbench-%dthr", sc.Workload.Threads),
		Served:       srv.Served(),
		Generated:    cl.Issued(),
		MeanLatency:  srv.Latencies().Mean(),
		P50Latency:   srv.Latencies().Quantile(0.50),
		P99Latency:   srv.Latencies().Quantile(0.99),
		SoCWatts:     win.Watts(power.Package),
		DRAMWatts:    win.Watts(power.DRAM),
		TotalWatts:   win.TotalWatts(),
		CC0Residency: win.Residency(cpu.CC0),
		CC1Residency: win.Residency(cpu.CC1),
	}
	p.AllIdle, p.AllIdleCensored = win.AllIdle()
	if r, e, ok := win.PC1A(); ok {
		p.PC1AResidency, p.PC1AEntries = &r, &e
	}
	return p
}

// effectiveCluster returns the fleet block the rendered output should
// describe: the cluster block, or the root tier's inlined block when a
// one-tier graph is standing in for it — a one-tier graph must render
// byte-for-byte like the cluster block it is (the parity contract).
// Nil for single-machine scenarios and multi-tier graphs.
func (r *Result) effectiveCluster() *Cluster {
	if r.Scenario.Cluster != nil {
		return r.Scenario.Cluster
	}
	if len(r.Scenario.Tiers) == 1 && len(r.Scenario.Edges) == 0 {
		return &r.Scenario.Tiers[0].Cluster
	}
	return nil
}

// clusterAnnotated reports whether the rendered report should mention
// the fleet. A 1-server fleet with a fixed policy renders exactly like
// the single machine it is — the parity contract — so only genuinely
// multi-server (or cluster-swept) scenarios get the annotation and the
// per-server breakdown.
func (r *Result) clusterAnnotated() bool {
	c := r.effectiveCluster()
	return c != nil && (c.Servers > 1 || axes[r.Axis].block.drivesCluster())
}

// faultsAnnotated reports whether the rendered output should carry the
// fault-outcome tables. An absent block — or an all-zero one — renders
// nothing, so fault-free output keeps its exact byte shape
// (TestFaultsZeroParity); a fault axis annotates even when the base
// block is all-zero, since the sweep supplies the non-zero values. A
// multi-tier graph annotates when any tier injects faults; the
// aggregate row then sums the tiers' counters.
func (r *Result) faultsAnnotated() bool {
	if c := r.effectiveCluster(); c != nil {
		return c.Faults.config().Enabled() || axes[r.Axis].block == faultsBlock
	}
	for i := range r.Scenario.Tiers {
		if r.Scenario.Tiers[i].Faults.config().Enabled() {
			return true
		}
	}
	return false
}

// fleetDesc names the fleet shape for the report header: rack topology
// when the fleet has one ("2x4 fleet"), plain size otherwise.
func fleetDesc(c *Cluster) string {
	if c.Racks > 1 {
		return fmt.Sprintf("%dx%d fleet", c.Racks, c.Servers/c.Racks)
	}
	return fmt.Sprintf("%d-server fleet", c.Servers)
}

// Report implements experiments.Result.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %s: %s on %s", r.Scenario.Name, r.Scenario.Workload.Service, r.Scenario.Config)
	if ts := r.Scenario.Tiers; len(ts) > 1 {
		names := make([]string, len(ts))
		for i := range ts {
			names[i] = fmt.Sprintf("%s:%d", ts[i].Name, ts[i].Servers)
		}
		fmt.Fprintf(&b, ", %d-tier graph (%s)", len(ts), strings.Join(names, " -> "))
	}
	if r.clusterAnnotated() {
		c := r.effectiveCluster()
		switch r.Axis {
		case AxisServers:
			fmt.Fprintf(&b, ", fleet (%s)", c.Policy)
		case AxisRacks:
			fmt.Fprintf(&b, ", %d-server fleet (%s)", c.Servers, c.Policy)
		case AxisPolicy:
			fmt.Fprintf(&b, ", %s", fleetDesc(c))
		default:
			fmt.Fprintf(&b, ", %s (%s)", fleetDesc(c), c.Policy)
		}
	}
	if r.Axis != "" {
		fmt.Fprintf(&b, ", sweeping %s", r.Axis)
	}
	b.WriteByte('\n')
	if r.Scenario.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Scenario.Description)
	}

	axisHdr := r.Axis
	if axisHdr == "" {
		axisHdr = "point"
	}
	header := []string{axisHdr, "workload", "served", "mean", "p99", "SoC", "DRAM", "total", "all-idle", "PC1A res", "dropped"}
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, experiments.Cells(p.axisCell(), p.Workload, p.Served,
			experiments.Micros(p.MeanLatency), experiments.Micros(p.P99Latency), experiments.Watts(p.SoCWatts),
			fmt.Sprintf("%.2fW", p.DRAMWatts), experiments.Watts(p.TotalWatts), experiments.Pct(p.AllIdle),
			experiments.PC1APct(p.PC1AResidency), p.Dropped))
	}
	b.WriteString(experiments.RenderTable(header, rows))

	// breakdown renders one titled block per point with a non-empty
	// breakdown; the fleet, rack, tier and graph stories live in these
	// blocks, not in the aggregate row.
	breakdown := func(title string, header []string, rows func(p Point) [][]string) {
		for _, p := range r.Points {
			if rs := rows(p); len(rs) > 0 {
				fmt.Fprintf(&b, "\n%s [%s=%s]:\n", title, axisHdr, p.axisCell())
				b.WriteString(experiments.RenderTable(header, rs))
			}
		}
	}
	// Per-server: which servers soaked the load, which ones idled into
	// PC1A.
	breakdown("per-server", []string{"server", "routed", "served", "mean", "p99", "total", "all-idle", "PC1A res", "dropped"},
		func(p Point) (rows [][]string) {
			for _, ss := range p.Servers {
				rows = append(rows, experiments.Cells(ss.Index, ss.Routed, ss.Served,
					experiments.Micros(ss.MeanLatency), experiments.Micros(ss.P99Latency), experiments.Watts(ss.TotalWatts),
					experiments.Pct(ss.AllIdle), experiments.PC1APct(ss.PC1AResidency), ss.Dropped))
			}
			return rows
		})
	// Per-rack power zones: whether packing kept whole racks dark is
	// only visible at zone granularity.
	breakdown("per-rack", []string{"rack", "active", "routed", "served", "mean", "p99", "zone W", "all-idle", "PC1A res", "dropped"},
		func(p Point) (rows [][]string) {
			for _, rs := range p.Racks {
				local := ""
				if rs.Local {
					local = "*"
				}
				rows = append(rows, experiments.Cells(fmt.Sprintf("%d%s", rs.Index, local),
					fmt.Sprintf("%d/%d", rs.ActiveServers, rs.Servers), rs.Routed, rs.Served,
					experiments.Micros(rs.MeanLatency), experiments.Micros(rs.P99Latency), experiments.Watts(rs.TotalWatts),
					experiments.Pct(rs.AllIdle), experiments.PC1APct(rs.PC1AResidency), rs.Dropped))
			}
			return rows
		})
	// Per-tier: which tier soaked the work and which one idled into
	// PC1A, invisible in the client-view aggregate row.
	breakdown("per-tier", []string{"tier", "arrivals", "served", "mean", "p99", "total", "all-idle", "PC1A res", "dropped"},
		func(p Point) (rows [][]string) {
			for _, tm := range p.Tiers {
				m := tm.Fleet
				rows = append(rows, experiments.Cells(tm.Name, m.Generated, m.Served,
					experiments.Micros(m.MeanLatency), experiments.Micros(m.P99Latency), experiments.Watts(m.TotalWatts),
					experiments.Pct(m.AllIdle), experiments.PC1APct(m.PC1AResidency), m.Dropped))
			}
			return rows
		})
	// Per-edge cache accounting: the miss stream each edge fed
	// downstream, against its configured hit ratio.
	breakdown("edges", []string{"edge", "hit", "measured", "ttl", "fanout", "lookups", "hits", "misses", "ttl-miss", "issued"},
		func(p Point) (rows [][]string) {
			for _, es := range p.Edges {
				ttl := "-"
				if es.TTL > 0 {
					ttl = fmt.Sprintf("%.0fus", float64(es.TTL)/float64(sim.Microsecond))
				}
				rows = append(rows, experiments.Cells(es.From+"->"+es.To, fmt.Sprintf("%.2f", es.HitRatio),
					fmt.Sprintf("%.3f", es.MeasuredHitRate), ttl, es.Fanout, es.Lookups, es.Hits, es.Misses, es.TTLMisses, es.Issued))
			}
			return rows
		})

	// Fault outcomes, one row per point — what the injected failures
	// cost (failed, shed) and what the robustness mechanisms bought
	// back (retries, hedges, goodput, time to recover).
	if r.faultsAnnotated() {
		b.WriteString("\nfaults:\n")
		frows := make([][]string, 0, len(r.Points))
		for _, p := range r.Points {
			rec := "-"
			if p.RecoveryP99 > 0 {
				rec = experiments.Micros(p.RecoveryP99)
			}
			frows = append(frows, experiments.Cells(p.axisCell(), fmt.Sprintf("%.0f", p.GoodputQPS), p.OK, p.Failed,
				p.Retried, p.Hedged, p.Shed, p.Crashes, p.Brownouts, p.Partitions, rec))
		}
		b.WriteString(experiments.RenderTable(
			[]string{axisHdr, "goodput", "ok", "failed", "retried", "hedged", "shed", "crashes", "brownouts", "partitions", "rec p99"},
			frows))
	}
	return b.String()
}

// axisCell renders the sweep-axis value for report tables: the label on
// string-valued axes, the number otherwise.
func (p Point) axisCell() string {
	if p.AxisLabel != "" {
		return p.AxisLabel
	}
	return fmt.Sprintf("%g", p.Axis)
}

// WriteCSV implements experiments.CSVWriter. Rows are fleet aggregates
// (identical in shape to single-machine rows — the parity contract);
// per-server series are in the -json output, not duplicated here. The
// axis_label column is empty except on the string-valued policy axis.
// Each further table follows after a blank line, and only when shown:
// the rack-zone table when some point is multi-rack
// (TestRackFlatParity), the tier and edge tables when some point is a
// multi-tier graph (TestTiersSingleTierParity), and the fault-outcome
// table with an enabled faults block or a fault axis
// (TestFaultsZeroParity). A scenario without them keeps the CSV bytes
// of the format that predates them.
func (r *Result) WriteCSV(w io.Writer) error {
	var agg, racks, tiers, edges, faults [][]any
	for _, p := range r.Points {
		agg = append(agg, []any{p.Axis, p.AxisLabel, p.Workload, p.OfferedQPS, p.Served, p.Generated, p.Dropped,
			p.MeanLatency, p.P50Latency, p.P99Latency, p.SoCWatts, p.DRAMWatts, p.TotalWatts,
			p.CC0Residency, p.CC1Residency, p.AllIdle, p.AllIdleCensored,
			experiments.Opt(p.PC1AResidency), experiments.Opt(p.PC1AEntries)})
		for _, rs := range p.Racks {
			racks = append(racks, []any{p.Axis, p.AxisLabel, rs.Index, rs.Local, rs.Servers, rs.ActiveServers,
				rs.Routed, rs.Served, rs.Dropped, rs.MeanLatency, rs.P99Latency,
				rs.SoCWatts, rs.DRAMWatts, rs.TotalWatts, rs.AllIdle,
				experiments.Opt(rs.PC1AResidency), experiments.Opt(rs.PC1AEntries)})
		}
		for _, tm := range p.Tiers {
			m := tm.Fleet
			tiers = append(tiers, []any{p.Axis, p.AxisLabel, tm.Name, m.Served, m.Generated, m.Dropped,
				m.MeanLatency, m.P50Latency, m.P99Latency, m.SoCWatts, m.DRAMWatts, m.TotalWatts, m.AllIdle,
				experiments.Opt(m.PC1AResidency), experiments.Opt(m.PC1AEntries)})
		}
		for _, es := range p.Edges {
			edges = append(edges, []any{p.Axis, p.AxisLabel, es.From, es.To, es.HitRatio,
				float64(es.TTL) / float64(sim.Microsecond), es.Fanout,
				es.Lookups, es.Hits, es.Misses, es.TTLMisses, es.Issued, es.MeasuredHitRate})
		}
		faults = append(faults, []any{p.Axis, p.AxisLabel, p.GoodputQPS, p.OK, p.Failed, p.Retried, p.Hedged, p.Shed,
			p.Crashes, p.Brownouts, p.Partitions, p.RecoveryP50, p.RecoveryP99, p.TruncatedDrain})
	}
	for _, t := range []struct {
		shown  bool
		header string
		rows   [][]any
	}{
		{true, "axis,axis_label,workload,offered_qps,served,generated,dropped,mean_s,p50_s,p99_s,soc_w,dram_w,total_w,cc0,cc1,all_idle,all_idle_censored,pc1a_residency,pc1a_entries", agg},
		{len(racks) > 0, "\naxis,axis_label,rack,local,servers,active_servers,routed,served,dropped,mean_s,p99_s,soc_w,dram_w,total_w,all_idle,pc1a_residency,pc1a_entries", racks},
		{len(tiers) > 0, "\naxis,axis_label,tier,served,generated,dropped,mean_s,p50_s,p99_s,soc_w,dram_w,total_w,all_idle,pc1a_residency,pc1a_entries", tiers},
		{len(tiers) > 0, "\naxis,axis_label,edge_from,edge_to,hit_ratio,ttl_us,fanout,lookups,hits,misses,ttl_misses,issued,measured_hit_rate", edges},
		{r.faultsAnnotated(), "\naxis,axis_label,goodput_qps,ok,failed,retried,hedged,shed,crashes,brownouts,partitions,recovery_p50_s,recovery_p99_s,truncated_drain", faults},
	} {
		if !t.shown {
			continue
		}
		if err := experiments.WriteCSVTable(w, t.header, t.rows); err != nil {
			return err
		}
	}
	return nil
}
