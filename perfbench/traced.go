package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/scenario"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// This file is the traced run's mirror: code that rebuilds each
// workload's configuration on the public soc, server, cluster and
// replay API —
// the same wiring scenario.Run assembles — and records, from outside
// the program, spans around construction, around the measured run and
// around every arrival, plus counts read from public getters. Its
// simulated output must match scenario.Run bit for bit (see parity),
// which is what licenses attributing its counts to the untraced run.

// span is one coarse span: construction or a measured run of one
// operating point, under the point's own root span.
type span struct {
	name       string
	parent     int // index into recorder.spans; -1 for a root
	start, end time.Duration
}

// recorder keeps the traced run's spans in memory until the report is
// written. Per-arrival spans are kept as durations only: there are
// hundreds of thousands of them, and only their distribution is used.
type recorder struct {
	t0    time.Time
	spans []span
	// sinkNS holds the host time of each arrival spent in the sink the
	// mirror wraps (server.Submit on one machine, the balancer's routing
	// sink on a fleet); pending holds Engine.Pending() at each arrival.
	sinkNS  []float64
	pending []float64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.t0) }

// wrap returns sink with a span around every arrival and a queue-depth
// sample taken as the arrival fires.
func (r *recorder) wrap(eng *sim.Engine, sink func(*workload.Request)) func(*workload.Request) {
	return func(req *workload.Request) {
		r.pending = append(r.pending, float64(eng.Pending()))
		t := time.Now()
		sink(req)
		r.sinkNS = append(r.sinkNS, float64(time.Since(t)))
	}
}

// selfTime is a span's duration minus the part its direct children
// cover.
func (r *recorder) selfTime(i int) time.Duration {
	d := r.spans[i].end - r.spans[i].start
	for _, s := range r.spans {
		if s.parent == i {
			d -= s.end - s.start
		}
	}
	return d
}

// mirrorPoint is the mirror's reading of one operating point: the
// fields the parity check compares with scenario.Run's Point.
type mirrorPoint struct {
	served, generated, dropped uint64
	totalWatts, p99, allIdle   float64
	pc1aEntries                *uint64
}

// layerCounts accumulates counts read from public getters over every
// point of the workload.
type layerCounts struct {
	// Whole-run engine events and generated (root) requests, warmup
	// included: the engine counter cannot be split at the window.
	events, generated uint64
	// windowServed is the requests served inside measured windows, the
	// base of every per-request device count.
	windowServed uint64

	// Device counters over the measured windows. devices is false where
	// the members' SoCs are private to the cluster layer; only the PC1A
	// entries, which Measurement reports, are then known.
	devices                                  bool
	wakes, pc1a, dramAcc, cke, standby, lwak uint64

	// Balancer-dynamics and fault-tier counters.
	drains                                      uint64
	faultGen, faultOK, retried, hedged, shedded uint64

	// Edge counters.
	lookups, misses, issued uint64

	// sink names the layer whose public call the arrival spans wrap:
	// "server" (server.Submit) or "cluster" (the balancer's routing).
	sink string
}

// mirror runs a workload's scenarios through the public API.
type mirror struct {
	rec    *recorder
	counts layerCounts
}

// run drives every operating point of every scenario in order and
// returns the points in the order scenario.Run reports them.
func (d *mirror) run(scs []scenario.Scenario, base experiments.Options) ([]mirrorPoint, error) {
	var out []mirrorPoint
	for _, sc := range scs {
		opt := sc.EffectiveOptions(base)
		pts, err := sweepPoints(sc)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			var dp mirrorPoint
			var err error
			switch {
			case pt.Cluster != nil:
				dp, err = d.fleet(pt, opt)
			case len(pt.Tiers) > 0:
				dp, err = d.graph(pt, opt)
			default:
				dp, err = d.single(pt, opt)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			out = append(out, dp)
		}
	}
	return out, nil
}

// sweepPoints expands a scenario into its operating points. The mirror
// covers what the benchmark's workloads use: unswept scenarios and the
// qps axis.
func sweepPoints(sc scenario.Scenario) ([]scenario.Scenario, error) {
	if sc.Server != (scenario.Overrides{}) {
		return nil, fmt.Errorf("mirror: server overrides are not supported")
	}
	if sc.Sweep == nil {
		return []scenario.Scenario{sc}, nil
	}
	if sc.Sweep.Axis != scenario.AxisQPS {
		return nil, fmt.Errorf("mirror: sweep axis %q is not supported", sc.Sweep.Axis)
	}
	pts := make([]scenario.Scenario, len(sc.Sweep.Values))
	for i, v := range sc.Sweep.Values {
		pts[i] = sc
		pts[i].Workload.QPS, pts[i].Workload.Util = v, 0
	}
	return pts, nil
}

// specFor builds the synthetic workload spec the scenario layer would
// for an open-loop service on the given core count.
func specFor(w scenario.Workload, cores int) (workload.Spec, error) {
	switch w.Service {
	case "memcached":
		if w.Util > 0 {
			return workload.MemcachedAtUtil(w.Util, cores), nil
		}
		return workload.Memcached(w.QPS), nil
	case "memcached-bursty":
		return workload.MemcachedBursty(w.QPS, w.Burstiness), nil
	case "mysql":
		return workload.MySQL(w.Load, cores), nil
	case "kafka":
		return workload.Kafka(w.Load, cores), nil
	}
	return workload.Spec{}, fmt.Errorf("mirror: service %q is not supported", w.Service)
}

func us(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }

// serverConfig is every member's software configuration: the
// evaluation defaults under the run's seed.
func serverConfig(seed uint64) server.Config {
	c := server.DefaultConfig()
	c.Seed = seed
	return c
}

// single drives one machine: soc.New plus a server fed by the mirror's
// own generator through server.Submit, run through the same warmup,
// instrument and window sequence as the scenario layer.
func (d *mirror) single(sc scenario.Scenario, opt experiments.Options) (mirrorPoint, error) {
	kind, err := soc.ParseConfigKind(sc.Config)
	if err != nil {
		return mirrorPoint{}, err
	}
	cfg := soc.DefaultConfig(kind)
	spec, err := specFor(sc.Workload, cfg.CoreCount)
	if err != nil {
		return mirrorPoint{}, err
	}
	d.counts.sink, d.counts.devices = "server", true
	root := d.rec.begin(fmt.Sprintf("point %s qps=%g", sc.Config, sc.Workload.QPS), -1)

	s := d.rec.begin("construct", root)
	sys := soc.New(cfg)
	eng := sys.Engine
	srv := server.NewClosedLoop(sys, serverConfig(opt.Seed))
	gen := workload.NewGenerator(eng, spec, opt.Seed,
		d.rec.wrap(eng, func(req *workload.Request) { srv.Submit(req, nil) }))
	d.rec.end(s)

	// runFor is server.Run's window-then-drain sequence, mirrored from
	// outside the server.
	runFor := func(name string, dur sim.Duration) {
		s := d.rec.begin(name, root)
		stop := eng.Now() + dur
		gen.Start(stop)
		eng.Run(stop)
		deadline := eng.Now() + server.DrainCap
		for srv.InFlight() > 0 && eng.Now() < deadline {
			eng.Run(eng.Now() + sim.Millisecond)
		}
		d.rec.end(s)
	}
	runFor("run.warmup", opt.Warmup())
	tr := trace.New(eng, sys.Cores)
	snap := sys.Meter.Snapshot()
	dev0, served0 := readDevices(sys), srv.Served()
	runFor("run.window", opt.Duration)
	tr.Finalize()
	dev1 := readDevices(sys)
	d.rec.end(root)

	c := &d.counts
	c.events += eng.EventsFired()
	c.generated += gen.Generated()
	c.windowServed += srv.Served() - served0
	c.wakes += dev1.wakes - dev0.wakes
	c.pc1a += dev1.pc1a - dev0.pc1a
	c.dramAcc += dev1.dramAcc - dev0.dramAcc
	c.cke += dev1.cke - dev0.cke
	c.standby += dev1.standby - dev0.standby
	c.lwak += dev1.lwak - dev0.lwak

	dp := mirrorPoint{
		served:     srv.Served(),
		generated:  gen.Generated(),
		dropped:    uint64(srv.InFlight()),
		totalWatts: snap.AverageTotal(),
		p99:        srv.Latencies().Quantile(0.99),
		allIdle:    tr.AllIdleFraction(),
	}
	if sys.APMU != nil {
		e := dev1.pc1a - dev0.pc1a
		dp.pc1aEntries = &e
	}
	return dp, nil
}

// deviceSnap is a snapshot of one machine's cumulative device counters.
type deviceSnap struct {
	wakes, pc1a, dramAcc, cke, standby, lwak uint64
}

func readDevices(sys *soc.System) deviceSnap {
	var d deviceSnap
	for _, c := range sys.Cores {
		for _, st := range []cpu.CState{cpu.CC1, cpu.CC1E, cpu.CC6} {
			d.wakes += c.Wakes(st)
		}
	}
	if sys.APMU != nil {
		d.pc1a = sys.APMU.Entries(pmu.PC1A)
	}
	for _, mc := range sys.MCs {
		d.dramAcc += mc.Accesses()
		d.cke += mc.CKEEntries()
	}
	for _, l := range sys.Links {
		d.standby += l.StandbyEntries()
		d.lwak += l.Wakes()
	}
	return d
}

// fleetConfig rebuilds the cluster.Config the scenario layer assembles
// for one fleet-shape block (a cluster block or one tier).
func fleetConfig(c *scenario.Cluster, kind soc.ConfigKind, seed uint64) (cluster.Config, error) {
	if len(c.ServerOverrides) > 0 {
		return cluster.Config{}, fmt.Errorf("mirror: server_overrides are not supported")
	}
	pol, err := cluster.ParsePolicy(c.Policy)
	if err != nil {
		return cluster.Config{}, err
	}
	var topo cluster.Topology
	if c.Racks >= 1 {
		topo = cluster.Topology{Racks: c.Racks, ServersPerRack: c.Servers / c.Racks}
	}
	members := make([]cluster.MemberConfig, c.Servers)
	for i := range members {
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(kind), Server: serverConfig(seed)}
	}
	cfg := cluster.Config{
		Policy:        pol,
		P99Target:     us(c.P99TargetUS),
		Topology:      topo,
		TorLatency:    us(c.TorLatencyUS),
		DrainHold:     us(c.DrainHoldUS),
		FeedbackEpoch: us(c.FeedbackEpochUS),
		Members:       members,
	}
	if f := c.Faults; f != nil {
		cfg.Faults = cluster.FaultConfig{
			MTBF:                 us(f.MTBFUS),
			MTTR:                 us(f.MTTRUS),
			BrownoutMTBF:         us(f.BrownoutMTBFUS),
			BrownoutDuration:     us(f.BrownoutDurationUS),
			BrownoutFactor:       f.BrownoutFactor,
			TorPartitionMTBF:     us(f.TorPartitionMTBFUS),
			TorPartitionDuration: us(f.TorPartitionDurationUS),
			RequestTimeout:       us(f.RequestTimeoutUS),
			MaxRetries:           f.MaxRetries,
			HedgeDelay:           us(f.HedgeDelayUS),
		}
	}
	return cfg, nil
}

// wrappedGenerator is a NewSource factory equivalent to the fleet's
// default synthetic generator, with the mirror's span around every
// arrival.
func (d *mirror) wrappedGenerator(eng *sim.Engine, spec workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source {
	return workload.NewGenerator(eng, spec, seed, d.rec.wrap(eng, sink))
}

// fleet drives a cluster-block scenario: cluster.New over the rebuilt
// configuration, with a recorded trace replayed through replay.New
// where the scenario names one, measured through MeasureInto.
func (d *mirror) fleet(sc scenario.Scenario, opt experiments.Options) (mirrorPoint, error) {
	kind, err := soc.ParseConfigKind(sc.Config)
	if err != nil {
		return mirrorPoint{}, err
	}
	cfg, err := fleetConfig(sc.Cluster, kind, opt.Seed)
	if err != nil {
		return mirrorPoint{}, err
	}
	d.counts.sink = "cluster"
	root := d.rec.begin("point "+sc.Name, -1)
	s := d.rec.begin("construct", root)
	var spec workload.Spec
	var bindErr error
	if sc.Workload.Service == "trace" {
		t := sc.Workload.Trace
		f, err := os.Open(t.Path)
		if err != nil {
			return mirrorPoint{}, err
		}
		defer f.Close()
		rd, err := replay.NewReader(f)
		if err != nil {
			return mirrorPoint{}, fmt.Errorf("%s: %w", t.Path, err)
		}
		spec = rd.Header().Spec()
		rp, err := replay.New(rd, replay.Options{TimeScale: t.TimeScale, Loop: t.Loop})
		if err != nil {
			return mirrorPoint{}, err
		}
		cfg.NewSource = func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
			bindErr = rp.Bind(eng, d.rec.wrap(eng, sink))
			return rp
		}
	} else {
		spec, err = specFor(sc.Workload, sc.Cluster.Servers*soc.DefaultConfig(kind).CoreCount)
		if err != nil {
			return mirrorPoint{}, err
		}
		cfg.NewSource = d.wrappedGenerator
	}
	fl, err := cluster.New(cfg, spec, opt.Seed)
	if err == nil {
		err = bindErr
	}
	if err != nil {
		return mirrorPoint{}, err
	}
	d.rec.end(s)

	s = d.rec.begin("Fleet.MeasureInto", root)
	var m cluster.Measurement
	fl.MeasureInto(&m, opt.Warmup(), opt.Duration)
	d.rec.end(s)
	d.rec.end(root)

	c := &d.counts
	c.events += fl.Engine().EventsFired()
	c.generated += m.Generated
	c.windowServed += m.ServedWindow
	if m.PC1AEntries != nil {
		c.pc1a += *m.PC1AEntries
	}
	c.drains += m.Drains
	if cfg.Faults.Enabled() {
		c.addFaults(&m)
	}
	return mirrorPoint{
		served:      m.Served,
		generated:   m.Generated,
		dropped:     m.Dropped,
		totalWatts:  m.TotalWatts,
		p99:         m.P99Latency,
		allIdle:     m.AllIdle,
		pc1aEntries: m.PC1AEntries,
	}, nil
}

func (c *layerCounts) addFaults(m *cluster.Measurement) {
	c.faultGen += m.Generated
	c.faultOK += m.OK
	c.retried += m.Retried
	c.hedged += m.Hedged
	c.shedded += m.Shed
}

// graph drives a tiers scenario: cluster.NewGraph over the rebuilt
// configuration — backend specs sized from the expected miss rates the
// way the scenario layer sizes them — measured through Graph.Measure.
// Only the root tier's arrivals pass through a sink the mirror can
// wrap; backend arrivals are emitted inside the graph.
func (d *mirror) graph(sc scenario.Scenario, opt experiments.Options) (mirrorPoint, error) {
	kind, err := soc.ParseConfigKind(sc.Config)
	if err != nil {
		return mirrorPoint{}, err
	}
	if len(sc.Edges) == 0 {
		return mirrorPoint{}, fmt.Errorf("mirror: a tiers block without edges is not supported")
	}
	cores := soc.DefaultConfig(kind).CoreCount
	rootSpec, err := specFor(sc.Workload, sc.Tiers[0].Servers*cores)
	if err != nil {
		return mirrorPoint{}, err
	}
	names := make(map[string]int, len(sc.Tiers))
	for i := range sc.Tiers {
		names[sc.Tiers[i].Name] = i
	}
	// Expected per-tier arrival rates: the root rate scaled by each
	// edge's miss probability and fan-out, relaxed to the DAG fixpoint.
	rates := make([]float64, len(sc.Tiers))
	rates[0] = rootSpec.MeanQPS()
	for range sc.Tiers {
		next := make([]float64, len(rates))
		next[0] = rates[0]
		for _, e := range sc.Edges {
			fanout := max(e.Fanout, 1)
			next[names[e.To]] += rates[names[e.From]] * (1 - e.HitRatio) * float64(fanout)
		}
		rates = next
	}
	gcfg := cluster.GraphConfig{Tiers: make([]cluster.TierConfig, len(sc.Tiers))}
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		cfg, err := fleetConfig(&t.Cluster, kind, opt.Seed)
		if err != nil {
			return mirrorPoint{}, err
		}
		spec := rootSpec
		if i == 0 {
			cfg.NewSource = d.wrappedGenerator
		} else if spec, err = backendSpec(t.Service, rates[i], cores); err != nil {
			return mirrorPoint{}, err
		}
		gcfg.Tiers[i] = cluster.TierConfig{Name: t.Name, Cluster: cfg, Spec: spec}
	}
	for _, e := range sc.Edges {
		gcfg.Edges = append(gcfg.Edges, cluster.EdgeConfig{
			From: names[e.From], To: names[e.To], HitRatio: e.HitRatio, TTL: us(e.TTLUS), Fanout: e.Fanout,
		})
	}

	d.counts.sink = "cluster"
	root := d.rec.begin("point "+sc.Name, -1)
	s := d.rec.begin("construct", root)
	g, err := cluster.NewGraph(gcfg, opt.Seed)
	if err != nil {
		return mirrorPoint{}, err
	}
	d.rec.end(s)
	s = d.rec.begin("Graph.Measure", root)
	gm := g.Measure(opt.Warmup(), opt.Duration)
	d.rec.end(s)
	d.rec.end(root)

	c := &d.counts
	c.events += g.Engine().EventsFired()
	c.generated += gm.Tiers[0].Fleet.Generated
	c.windowServed += gm.Tiers[0].Fleet.ServedWindow
	dp := mirrorPoint{
		served:    gm.Client.Served,
		generated: gm.Tiers[0].Fleet.Generated,
		p99:       gm.Client.P99Latency,
	}
	var pc1a uint64
	havePC1A := false
	servers := 0
	for ti := range gm.Tiers {
		m := &gm.Tiers[ti].Fleet
		n := sc.Tiers[ti].Servers
		servers += n
		dp.dropped += m.Dropped
		dp.totalWatts += m.TotalWatts
		dp.allIdle += m.AllIdle * float64(n)
		if m.PC1AEntries != nil {
			havePC1A = true
			pc1a += *m.PC1AEntries
		}
		c.drains += m.Drains
		if gcfg.Tiers[ti].Cluster.Faults.Enabled() {
			c.addFaults(m)
		}
	}
	dp.allIdle /= float64(servers)
	if havePC1A {
		dp.pc1aEntries = &pc1a
		c.pc1a += pc1a
	}
	for _, e := range gm.Edges {
		c.lookups += e.Lookups
		c.misses += e.Misses
		c.issued += e.Issued
	}
	return dp, nil
}

// backendSpec sizes a backend tier's spec at the expected miss rate
// flowing into it, as the scenario layer does: the arrival process is
// never sampled (upstream misses drive emission), but the spec names
// the stream and supplies service times and packing caps.
func backendSpec(service string, rate float64, cores int) (workload.Spec, error) {
	if rate <= 0 {
		rate = 1
	}
	switch service {
	case "memcached":
		return workload.Memcached(rate), nil
	case "mysql":
		probe := workload.MySQL(1, cores)
		return workload.MySQL(rate*probe.Service.Mean()/float64(cores), cores), nil
	case "kafka":
		probe := workload.Kafka(1, cores)
		return workload.Kafka(rate*probe.Service.Mean()/float64(cores), cores), nil
	}
	return workload.Spec{}, fmt.Errorf("mirror: backend service %q is not supported", service)
}

// parity compares the mirror's points with scenario.Run's, field by
// field and bit for bit; any difference means the mirror did not
// rebuild the workload faithfully, and the traced run fails.
func parity(mirrored []mirrorPoint, results []*scenario.Result) []string {
	var ref []*scenario.Point
	for _, r := range results {
		for i := range r.Points {
			ref = append(ref, &r.Points[i])
		}
	}
	if len(mirrored) != len(ref) {
		return []string{fmt.Sprintf("mirror produced %d points, scenario.Run %d", len(mirrored), len(ref))}
	}
	var bad []string
	for i, dp := range mirrored {
		p := ref[i]
		diff := func(field string, got, want any) {
			bad = append(bad, fmt.Sprintf("point %d %s: traced %v, untraced %v", i, field, got, want))
		}
		if dp.served != p.Served {
			diff("served", dp.served, p.Served)
		}
		if dp.generated != p.Generated {
			diff("generated", dp.generated, p.Generated)
		}
		if dp.dropped != p.Dropped {
			diff("dropped", dp.dropped, p.Dropped)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"total watts", dp.totalWatts, p.TotalWatts},
			{"p99", dp.p99, p.P99Latency},
			{"all-idle", dp.allIdle, p.AllIdle},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				diff(f.name, f.got, f.want)
			}
		}
		switch {
		case (dp.pc1aEntries == nil) != (p.PC1AEntries == nil):
			diff("pc1a entries present", dp.pc1aEntries != nil, p.PC1AEntries != nil)
		case dp.pc1aEntries != nil && *dp.pc1aEntries != *p.PC1AEntries:
			diff("pc1a entries", *dp.pc1aEntries, *p.PC1AEntries)
		}
	}
	return bad
}
