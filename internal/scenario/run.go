package scenario

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
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
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opt = s.EffectiveOptions(opt)

	axis := ""
	values := []float64{0}
	swept := false
	if s.Sweep != nil {
		axis, swept = s.Sweep.Axis, true
		if axis == AxisPolicy {
			// String-valued axis: the point values are indices into the
			// policy list; at() resolves them back to names.
			values = make([]float64, len(s.Sweep.Policies))
			for i := range values {
				values[i] = float64(i)
			}
		} else {
			values = s.Sweep.Values
		}
	}

	// Resolve every point up front so a bad axis value fails before any
	// simulation runs.
	type job struct {
		axis  float64
		label string
		sc    Scenario
	}
	jobs := make([]job, len(values))
	for i, v := range values {
		pt := s
		label := ""
		if swept {
			pt = s.at(axis, v)
			if axis == AxisPolicy {
				label = s.Sweep.Policies[i]
			}
		}
		kind, err := soc.ParseConfigKind(pt.Config)
		if err != nil {
			return nil, err
		}
		pointErr := func(err error) error {
			if swept {
				return fmt.Errorf("scenario %q [%s=%g]: %w", s.Name, axis, v, err)
			}
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		// Every point validates in tier form, sysbench too — its one
		// server is the single machine's — but only open-loop points run
		// in it.
		g, block := pt.asGraph()
		cores := soc.DefaultConfig(kind).CoreCount * g.Tiers[0].Servers
		if pt.Workload.Service == "trace" {
			if err := pt.Workload.Trace.preflight(); err != nil {
				return nil, pointErr(err)
			}
		} else if _, err := pt.Workload.spec(cores); err != nil {
			return nil, pointErr(err)
		}
		if err := g.validateTieredPoint(kind, block); err != nil {
			return nil, pointErr(err)
		}
		if pt.Workload.Service != "sysbench" {
			pt = g
		}
		jobs[i] = job{axis: v, label: label, sc: pt}
	}

	res := &Result{Scenario: s, Axis: axis}
	// Each sweep worker carries one graph cache: consecutive points that
	// keep the shape (the common case — the axis sweeps QPS or a policy
	// knob, or an edge's hit ratio) reset one graph instead of rebuilding
	// N machines per point. Reset is byte-identical to a fresh build, so
	// results stay bit-identical at any parallelism.
	res.Points = experiments.SweepWith(opt, jobs,
		func() *cluster.GraphReuse { return new(cluster.GraphReuse) },
		func(reuse *cluster.GraphReuse, j job) Point {
			if j.sc.Workload.Service == "sysbench" {
				return runClosedLoop(j.sc, j.axis, opt)
			}
			return runGraph(j.sc, j.axis, j.label, opt, reuse)
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

// validateTieredPoint checks the parts of a point's tiers that only
// exist once the sweep value is applied: each tier's size, that its
// racks divide it evenly, that every per-server override targets a
// server that exists, and that each member's merged configuration is
// coherent. Errors name the block asGraph reported, in the words each
// shape has always used; the single machine (block "") has one fixed
// server and no overrides, so only its tick knobs can be incoherent.
func (s *Scenario) validateTieredPoint(kind soc.ConfigKind, block string) error {
	for ti := range s.Tiers {
		t := &s.Tiers[ti]
		name, unit, member := block, "fleet", "server "
		if block == "tiers" {
			name, unit = fmt.Sprintf("tiers[%d]", ti), "tier"
			member = name + " server "
		}
		n := t.Servers
		if n < 1 {
			return fmt.Errorf("%s.servers must be at least 1", name)
		}
		if r := t.Racks; r > 1 && n%r != 0 {
			return fmt.Errorf("%s.racks %d does not divide %d servers into equal racks", name, r, n)
		}
		for _, key := range slices.Sorted(maps.Keys(t.ServerOverrides)) {
			if idx, _ := strconv.Atoi(key); idx >= n {
				return fmt.Errorf("%s.server_overrides[%s]: %s has only %d servers", name, key, unit, n)
			}
		}
		for i, mc := range s.memberConfigs(&t.Cluster, kind) {
			if mc.Server.TimerTickHz > 0 && mc.Server.TickKernelTime <= 0 {
				if block == "" {
					return fmt.Errorf("timer_tick_hz needs tick_kernel_us > 0")
				}
				return fmt.Errorf("%s%d: timer_tick_hz needs tick_kernel_us > 0", member, i)
			}
		}
	}
	return nil
}

// memberConfigs builds one tier's per-server configurations:
// evaluation defaults, then the scenario-level Server overrides (the
// base of every tier's servers), then that server's entry in the tier's
// ServerOverrides.
func (s *Scenario) memberConfigs(c *Cluster, kind soc.ConfigKind) []cluster.MemberConfig {
	base := server.DefaultConfig()
	s.Server.apply(&base)
	members := make([]cluster.MemberConfig, c.Servers)
	for i := range members {
		scfg := base
		if ov, ok := c.ServerOverrides[strconv.Itoa(i)]; ok {
			ov.apply(&scfg)
		}
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(kind), Server: scfg}
	}
	return members
}

// tierSpec synthesizes the workload spec of a backend tier at the
// expected miss rate flowing into it. The graph's push sources never
// sample the arrival process — upstream misses drive emission — but
// the spec still names the tier's stream, sizes its connections and
// supplies the service-time distribution the balancer derives packing
// caps from.
func tierSpec(service string, rate float64, cores int) workload.Spec {
	if rate <= 0 {
		// A hit-ratio-1 point never misses; the rate only names the spec.
		rate = 1
	}
	switch service {
	case "memcached":
		return workload.Memcached(rate)
	case "mysql":
		probe := workload.MySQL(1, cores)
		return workload.MySQL(rate*probe.Service.Mean()/float64(cores), cores)
	case "kafka":
		probe := workload.Kafka(1, cores)
		return workload.Kafka(rate*probe.Service.Mean()/float64(cores), cores)
	}
	// Unreachable after Validate; a panic here is a missing rule.
	panic(fmt.Sprintf("tierSpec: unknown service %q", service))
}

// runGraph wires one applied open-loop point, in asGraph's tier-list
// form: every tier a full fleet on one shared engine, edges carrying
// misses downstream (see cluster.Graph), measured through the built-in
// experiments' warmup/window sequence. A one-tier graph of one
// round_robin server assembles event-for-event the single-machine
// wiring, so an unswept point with no overrides reproduces the built-in
// experiments bit for bit (TestScenarioMatchesHandWiredRun).
func runGraph(sc Scenario, axisValue float64, axisLabel string, opt experiments.Options, reuse *cluster.GraphReuse) Point {
	kind, _ := soc.ParseConfigKind(sc.Config)
	cores := soc.DefaultConfig(kind).CoreCount
	us := func(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
	must := func(err error) {
		if err != nil {
			// Unreachable after Validate, preflight and
			// validateTieredPoint; a panic here is a missing validation
			// rule, not a user error.
			panic(fmt.Sprintf("scenario %q: %v", sc.Name, err))
		}
	}

	// A trace point replays a recorded stream at the root tier instead
	// of a synthetic generator: the spec comes from the trace header (so
	// packing caps and report fields match the recorded workload bit for
	// bit) and the root tier's source factory binds a Replay over the
	// open file. The file is opened and closed per point — no descriptor
	// outlives the measurement, and the per-worker graph cache stays
	// file-agnostic.
	var rootSpec workload.Spec
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
	} else {
		rootSpec, _ = sc.Workload.spec(sc.Tiers[0].Servers * cores)
	}

	names := make(map[string]int, len(sc.Tiers))
	for i := range sc.Tiers {
		names[sc.Tiers[i].Name] = i
	}
	// Expected per-tier arrival rates — the root rate scaled by each
	// edge's miss probability and fan-out — size the backend specs. The
	// graph is a DAG, so |tiers| relaxation rounds reach the fixpoint.
	rates := make([]float64, len(sc.Tiers))
	rates[0] = rootSpec.MeanQPS()
	for range sc.Tiers {
		next := make([]float64, len(rates))
		next[0] = rates[0]
		for _, e := range sc.Edges {
			fanout := e.Fanout
			if fanout < 1 {
				fanout = 1
			}
			next[names[e.To]] += rates[names[e.From]] * (1 - e.HitRatio) * float64(fanout)
		}
		rates = next
	}

	gcfg := cluster.GraphConfig{
		Tiers: make([]cluster.TierConfig, len(sc.Tiers)),
		Edges: make([]cluster.EdgeConfig, len(sc.Edges)),
	}
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		pol, _ := cluster.ParsePolicy(t.Policy)
		// An absent racks field keeps the zero-value topology; an explicit
		// "racks": 1 goes through the Topology path as Flat(N). Both
		// assemble the identical event sequence (TestRackFlatParity).
		var topo cluster.Topology
		if r := t.Racks; r >= 1 {
			topo = cluster.Topology{Racks: r, ServersPerRack: t.Servers / r}
		}
		spec := rootSpec
		if i > 0 {
			spec = tierSpec(t.Service, rates[i], cores)
		}
		gcfg.Tiers[i] = cluster.TierConfig{
			Name: t.Name,
			Cluster: cluster.Config{
				Policy:        pol,
				P99Target:     us(t.P99TargetUS),
				Topology:      topo,
				TorLatency:    us(t.TorLatencyUS),
				DrainHold:     us(t.DrainHoldUS),
				FeedbackEpoch: us(t.FeedbackEpochUS),
				Faults:        t.Faults.config(),
				Members:       sc.memberConfigs(&t.Cluster, kind),
			},
			Spec: spec,
		}
	}
	for i, e := range sc.Edges {
		gcfg.Edges[i] = cluster.EdgeConfig{
			From:     names[e.From],
			To:       names[e.To],
			HitRatio: e.HitRatio,
			TTL:      us(e.TTLUS),
			Fanout:   e.Fanout,
		}
	}
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
	scfg := server.DefaultConfig()
	sc.Server.apply(&scfg)
	srv := server.NewClosedLoop(sys, scfg)
	cl := workload.SysbenchOLTP(sys.Engine, sc.Workload.Threads,
		sc.Workload.ThinkMS*1e-3, opt.Seed, srv.Submit)
	cl.Start()

	// Warmup so the measured window starts in steady state — the same
	// formula as the built-in experiments (Options.Warmup). Closed-loop
	// clients issue continuously, so a window is just engine time.
	sys.Engine.Run(sys.Engine.Now() + opt.Warmup())

	tr := trace.New(sys.Engine, sys.Cores)
	snap := sys.Meter.Snapshot()
	t0 := sys.Engine.Now()
	var res0 sim.Duration
	var ent0 uint64
	if sys.APMU != nil {
		res0 = sys.APMU.Residency(pmu.PC1A)
		ent0 = sys.APMU.Entries(pmu.PC1A)
	}
	sys.Engine.Run(sys.Engine.Now() + opt.Duration)
	tr.Finalize()
	cl.Stop()

	p := Point{
		Axis:            axisValue,
		Workload:        fmt.Sprintf("sysbench-%dthr", sc.Workload.Threads),
		Served:          srv.Served(),
		Generated:       cl.Issued(),
		MeanLatency:     srv.Latencies().Mean(),
		P50Latency:      srv.Latencies().Quantile(0.50),
		P99Latency:      srv.Latencies().Quantile(0.99),
		SoCWatts:        snap.AveragePower(power.Package),
		DRAMWatts:       snap.AveragePower(power.DRAM),
		TotalWatts:      snap.AverageTotal(),
		CC0Residency:    tr.MeanResidency(cpu.CC0),
		CC1Residency:    tr.MeanResidency(cpu.CC1),
		AllIdle:         tr.AllIdleFraction(),
		AllIdleCensored: tr.CensoredAllIdleFraction(),
	}
	if sys.APMU != nil {
		residency := 0.0
		if window := sys.Engine.Now() - t0; window > 0 {
			residency = float64(sys.APMU.Residency(pmu.PC1A)-res0) / float64(window)
		}
		entries := sys.APMU.Entries(pmu.PC1A) - ent0
		p.PC1AResidency, p.PC1AEntries = &residency, &entries
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
	return c != nil && (c.Servers > 1 || clusterAxes[r.Axis])
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
		return c.Faults.enabled() || faultAxes[r.Axis]
	}
	for i := range r.Scenario.Tiers {
		if r.Scenario.Tiers[i].Faults.enabled() {
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
		pc1a := "-"
		if p.PC1AResidency != nil {
			pc1a = fmt.Sprintf("%.1f%%", *p.PC1AResidency*100)
		}
		rows = append(rows, []string{
			p.axisCell(),
			p.Workload,
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%.1fus", p.MeanLatency*1e6),
			fmt.Sprintf("%.1fus", p.P99Latency*1e6),
			fmt.Sprintf("%.1fW", p.SoCWatts),
			fmt.Sprintf("%.2fW", p.DRAMWatts),
			fmt.Sprintf("%.1fW", p.TotalWatts),
			fmt.Sprintf("%.1f%%", p.AllIdle*100),
			pc1a,
			fmt.Sprintf("%d", p.Dropped),
		})
	}
	b.WriteString(experiments.RenderTable(header, rows))

	// Per-server breakdowns, one block per multi-server point — the
	// fleet story (which servers soaked the load, which ones idled into
	// PC1A) lives here, not in the aggregate row.
	for _, p := range r.Points {
		if len(p.Servers) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-server [%s=%s]:\n", axisHdr, p.axisCell())
		srows := make([][]string, 0, len(p.Servers))
		for _, ss := range p.Servers {
			pc1a := "-"
			if ss.PC1AResidency != nil {
				pc1a = fmt.Sprintf("%.1f%%", *ss.PC1AResidency*100)
			}
			srows = append(srows, []string{
				fmt.Sprintf("%d", ss.Index),
				fmt.Sprintf("%d", ss.Routed),
				fmt.Sprintf("%d", ss.Served),
				fmt.Sprintf("%.1fus", ss.MeanLatency*1e6),
				fmt.Sprintf("%.1fus", ss.P99Latency*1e6),
				fmt.Sprintf("%.1fW", ss.TotalWatts),
				fmt.Sprintf("%.1f%%", ss.AllIdle*100),
				pc1a,
				fmt.Sprintf("%d", ss.Dropped),
			})
		}
		b.WriteString(experiments.RenderTable(
			[]string{"server", "routed", "served", "mean", "p99", "total", "all-idle", "PC1A res", "dropped"},
			srows))
	}

	// Per-rack power zones, one block per multi-rack point — whether
	// packing kept whole racks dark is the rack story, and it is only
	// visible at zone granularity.
	for _, p := range r.Points {
		if len(p.Racks) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-rack [%s=%s]:\n", axisHdr, p.axisCell())
		rrows := make([][]string, 0, len(p.Racks))
		for _, rs := range p.Racks {
			local := ""
			if rs.Local {
				local = "*"
			}
			pc1a := "-"
			if rs.PC1AResidency != nil {
				pc1a = fmt.Sprintf("%.1f%%", *rs.PC1AResidency*100)
			}
			rrows = append(rrows, []string{
				fmt.Sprintf("%d%s", rs.Index, local),
				fmt.Sprintf("%d/%d", rs.ActiveServers, rs.Servers),
				fmt.Sprintf("%d", rs.Routed),
				fmt.Sprintf("%d", rs.Served),
				fmt.Sprintf("%.1fus", rs.MeanLatency*1e6),
				fmt.Sprintf("%.1fus", rs.P99Latency*1e6),
				fmt.Sprintf("%.1fW", rs.TotalWatts),
				fmt.Sprintf("%.1f%%", rs.AllIdle*100),
				pc1a,
				fmt.Sprintf("%d", rs.Dropped),
			})
		}
		b.WriteString(experiments.RenderTable(
			[]string{"rack", "active", "routed", "served", "mean", "p99", "zone W", "all-idle", "PC1A res", "dropped"},
			rrows))
	}

	// Per-tier breakdowns, one block per multi-tier point — which tier
	// soaked the work and which one idled into PC1A is the service-graph
	// story, invisible in the client-view aggregate row.
	for _, p := range r.Points {
		if len(p.Tiers) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-tier [%s=%s]:\n", axisHdr, p.axisCell())
		trows := make([][]string, 0, len(p.Tiers))
		for _, tm := range p.Tiers {
			m := tm.Fleet
			pc1a := "-"
			if m.PC1AResidency != nil {
				pc1a = fmt.Sprintf("%.1f%%", *m.PC1AResidency*100)
			}
			trows = append(trows, []string{
				tm.Name,
				fmt.Sprintf("%d", m.Generated),
				fmt.Sprintf("%d", m.Served),
				fmt.Sprintf("%.1fus", m.MeanLatency*1e6),
				fmt.Sprintf("%.1fus", m.P99Latency*1e6),
				fmt.Sprintf("%.1fW", m.TotalWatts),
				fmt.Sprintf("%.1f%%", m.AllIdle*100),
				pc1a,
				fmt.Sprintf("%d", m.Dropped),
			})
		}
		b.WriteString(experiments.RenderTable(
			[]string{"tier", "arrivals", "served", "mean", "p99", "total", "all-idle", "PC1A res", "dropped"},
			trows))
	}

	// Per-edge cache accounting, one block per point with edges — the
	// miss stream each edge fed downstream, against its configured hit
	// ratio.
	for _, p := range r.Points {
		if len(p.Edges) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nedges [%s=%s]:\n", axisHdr, p.axisCell())
		erows := make([][]string, 0, len(p.Edges))
		for _, es := range p.Edges {
			ttl := "-"
			if es.TTL > 0 {
				ttl = fmt.Sprintf("%.0fus", float64(es.TTL)/float64(sim.Microsecond))
			}
			erows = append(erows, []string{
				fmt.Sprintf("%s->%s", es.From, es.To),
				fmt.Sprintf("%.2f", es.HitRatio),
				fmt.Sprintf("%.3f", es.MeasuredHitRate),
				ttl,
				fmt.Sprintf("%d", es.Fanout),
				fmt.Sprintf("%d", es.Lookups),
				fmt.Sprintf("%d", es.Hits),
				fmt.Sprintf("%d", es.Misses),
				fmt.Sprintf("%d", es.TTLMisses),
				fmt.Sprintf("%d", es.Issued),
			})
		}
		b.WriteString(experiments.RenderTable(
			[]string{"edge", "hit", "measured", "ttl", "fanout", "lookups", "hits", "misses", "ttl-miss", "issued"},
			erows))
	}

	// Fault outcomes, one row per point — what the injected failures
	// cost (failed, shed) and what the robustness mechanisms bought
	// back (retries, hedges, goodput, time to recover).
	if r.faultsAnnotated() {
		b.WriteString("\nfaults:\n")
		frows := make([][]string, 0, len(r.Points))
		for _, p := range r.Points {
			rec := "-"
			if p.RecoveryP99 > 0 {
				rec = fmt.Sprintf("%.1fus", p.RecoveryP99*1e6)
			}
			frows = append(frows, []string{
				p.axisCell(),
				fmt.Sprintf("%.0f", p.GoodputQPS),
				fmt.Sprintf("%d", p.OK),
				fmt.Sprintf("%d", p.Failed),
				fmt.Sprintf("%d", p.Retried),
				fmt.Sprintf("%d", p.Hedged),
				fmt.Sprintf("%d", p.Shed),
				fmt.Sprintf("%d", p.Crashes),
				fmt.Sprintf("%d", p.Brownouts),
				fmt.Sprintf("%d", p.Partitions),
				rec,
			})
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
// Multi-rack points additionally emit a second, blank-line-separated
// rack-zone table; flat fleets emit nothing extra, so their CSV stays
// byte-identical to the pre-topology format (TestRackFlatParity).
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "axis,axis_label,workload,offered_qps,served,generated,dropped,mean_s,p50_s,p99_s,soc_w,dram_w,total_w,cc0,cc1,all_idle,all_idle_censored,pc1a_residency,pc1a_entries"); err != nil {
		return err
	}
	haveRacks := false
	for _, p := range r.Points {
		if len(p.Racks) > 0 {
			haveRacks = true
		}
		// PC1A cells stay empty on configurations without an APMU.
		pc1aRes, pc1aEnt := "", ""
		if p.PC1AResidency != nil {
			pc1aRes = fmt.Sprintf("%g", *p.PC1AResidency)
		}
		if p.PC1AEntries != nil {
			pc1aEnt = fmt.Sprintf("%d", *p.PC1AEntries)
		}
		if _, err := fmt.Fprintf(w, "%g,%s,%s,%g,%d,%d,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%s,%s\n",
			p.Axis, p.AxisLabel, p.Workload, p.OfferedQPS, p.Served, p.Generated, p.Dropped,
			p.MeanLatency, p.P50Latency, p.P99Latency,
			p.SoCWatts, p.DRAMWatts, p.TotalWatts,
			p.CC0Residency, p.CC1Residency, p.AllIdle, p.AllIdleCensored,
			pc1aRes, pc1aEnt); err != nil {
			return err
		}
	}
	if haveRacks {
		if _, err := fmt.Fprintln(w, "\naxis,axis_label,rack,local,servers,active_servers,routed,served,dropped,mean_s,p99_s,soc_w,dram_w,total_w,all_idle,pc1a_residency,pc1a_entries"); err != nil {
			return err
		}
		for _, p := range r.Points {
			for _, rs := range p.Racks {
				pc1aRes, pc1aEnt := "", ""
				if rs.PC1AResidency != nil {
					pc1aRes = fmt.Sprintf("%g", *rs.PC1AResidency)
				}
				if rs.PC1AEntries != nil {
					pc1aEnt = fmt.Sprintf("%d", *rs.PC1AEntries)
				}
				if _, err := fmt.Fprintf(w, "%g,%s,%d,%t,%d,%d,%d,%d,%d,%g,%g,%g,%g,%g,%g,%s,%s\n",
					p.Axis, p.AxisLabel, rs.Index, rs.Local, rs.Servers, rs.ActiveServers,
					rs.Routed, rs.Served, rs.Dropped,
					rs.MeanLatency, rs.P99Latency,
					rs.SoCWatts, rs.DRAMWatts, rs.TotalWatts,
					rs.AllIdle, pc1aRes, pc1aEnt); err != nil {
					return err
				}
			}
		}
	}
	if err := r.writeTiersCSV(w); err != nil {
		return err
	}
	return r.writeFaultsCSV(w)
}

// writeTiersCSV emits the blank-line-separated per-tier and per-edge
// tables of multi-tier points. Nothing is written for cluster,
// single-machine or one-tier scenarios, so their CSV stays
// byte-identical to the pre-graph format (TestTiersSingleTierParity).
func (r *Result) writeTiersCSV(w io.Writer) error {
	haveTiers := false
	for _, p := range r.Points {
		if len(p.Tiers) > 0 {
			haveTiers = true
			break
		}
	}
	if !haveTiers {
		return nil
	}
	if _, err := fmt.Fprintln(w, "\naxis,axis_label,tier,served,generated,dropped,mean_s,p50_s,p99_s,soc_w,dram_w,total_w,all_idle,pc1a_residency,pc1a_entries"); err != nil {
		return err
	}
	for _, p := range r.Points {
		for _, tm := range p.Tiers {
			m := tm.Fleet
			pc1aRes, pc1aEnt := "", ""
			if m.PC1AResidency != nil {
				pc1aRes = fmt.Sprintf("%g", *m.PC1AResidency)
			}
			if m.PC1AEntries != nil {
				pc1aEnt = fmt.Sprintf("%d", *m.PC1AEntries)
			}
			if _, err := fmt.Fprintf(w, "%g,%s,%s,%d,%d,%d,%g,%g,%g,%g,%g,%g,%g,%s,%s\n",
				p.Axis, p.AxisLabel, tm.Name, m.Served, m.Generated, m.Dropped,
				m.MeanLatency, m.P50Latency, m.P99Latency,
				m.SoCWatts, m.DRAMWatts, m.TotalWatts,
				m.AllIdle, pc1aRes, pc1aEnt); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(w, "\naxis,axis_label,edge_from,edge_to,hit_ratio,ttl_us,fanout,lookups,hits,misses,ttl_misses,issued,measured_hit_rate"); err != nil {
		return err
	}
	for _, p := range r.Points {
		for _, es := range p.Edges {
			if _, err := fmt.Fprintf(w, "%g,%s,%s,%s,%g,%g,%d,%d,%d,%d,%d,%d,%g\n",
				p.Axis, p.AxisLabel, es.From, es.To, es.HitRatio,
				float64(es.TTL)/float64(sim.Microsecond), es.Fanout,
				es.Lookups, es.Hits, es.Misses, es.TTLMisses, es.Issued,
				es.MeasuredHitRate); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFaultsCSV emits the blank-line-separated fault-outcome table.
// Nothing is written without an enabled faults block (or a fault
// axis), so fault-free CSV stays byte-identical to the pre-fault
// format (TestFaultsZeroParity).
func (r *Result) writeFaultsCSV(w io.Writer) error {
	if !r.faultsAnnotated() {
		return nil
	}
	if _, err := fmt.Fprintln(w, "\naxis,axis_label,goodput_qps,ok,failed,retried,hedged,shed,crashes,brownouts,partitions,recovery_p50_s,recovery_p99_s,truncated_drain"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%g,%s,%g,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d\n",
			p.Axis, p.AxisLabel, p.GoodputQPS, p.OK, p.Failed, p.Retried, p.Hedged, p.Shed,
			p.Crashes, p.Brownouts, p.Partitions,
			p.RecoveryP50, p.RecoveryP99, p.TruncatedDrain); err != nil {
			return err
		}
	}
	return nil
}
