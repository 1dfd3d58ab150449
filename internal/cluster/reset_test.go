package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// resetCase is one resettable layer under TestResetEqualsFresh: fresh
// runs point A on a new value; reused runs point B on a new value,
// resets it, and runs point A on it.
type resetCase struct {
	name          string
	fresh, reused func(t *testing.T) any
}

// TestResetEqualsFresh is the reset contract of every resettable layer,
// one at a time: point A run on a fresh value must give the same JSON
// bytes as point A run on a value that first ran a different point B
// and was then reset. Every run of A shares one workload.Spec whose
// arrival law is modulated (MMPP2), so a law that kept stream state
// would hand a later run the phase an earlier one left behind. B is
// busier than A wherever that grows storage a reset keeps: run queues,
// record pools, burst queues.
func TestResetEqualsFresh(t *testing.T) {
	specA := workload.MemcachedBursty(40000, 4)
	specB := workload.MemcachedBursty(90000, 8)
	for _, c := range resetEqualsFreshCases(t, specA, specB) {
		t.Run(c.name, func(t *testing.T) {
			want := resetJSON(t, c.fresh(t))
			got := resetJSON(t, c.reused(t))
			if !bytes.Equal(want, got) {
				t.Errorf("reset run differs from a fresh one:\nfresh: %.600s\nreset: %.600s", want, got)
			}
		})
	}
}

func resetJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// arrivalRun is what a source emitted over two windows.
type arrivalRun struct {
	Requests  []workload.Request
	Generated uint64
	Now       sim.Time
}

// windows runs start (a source's Start) through a warmup and a measured
// window on eng, as the fleets do.
func windows(eng *sim.Engine, start func(sim.Time)) {
	for _, end := range []sim.Time{eng.Now() + 2*sim.Millisecond, eng.Now() + 6*sim.Millisecond} {
		start(end)
		eng.Run(end)
	}
}

// resetRec is a pooled record for the sim.Pool case: it logs its value
// and firing time, then returns itself to its pool.
type resetRec struct {
	v    int64
	eng  *sim.Engine
	out  *[]int64
	pool *sim.Pool[resetRec]
}

func (r *resetRec) Fire() {
	*r.out = append(*r.out, r.v, int64(r.eng.Now()))
	r.pool.Put(r)
}

// machineRun is what a driven machine reports.
type machineRun struct {
	SoCWatts, DRAMWatts float64
	PC1A                float64
	PC1AEntries         uint64
	PkgState            pmu.PkgState
	WorkDone, Wakes     []uint64
	StandbyEntries      []uint64
	MCs                 []uint64  // accesses and CKE-off entries per controller
	Residency           []float64 // the window's mean residencies and all-idle fractions
	Tracer              []float64 // from the tracer, when one is attached
	Served              uint64
	MeanLatency         float64
	P99Latency          float64
	Events              uint64
	Now                 sim.Time
}

// driveMachine runs n rounds of seeded load on sys — work on random
// cores (several items at once now and then, which grows run queues)
// and DRAM bursts — inside one measured window, and reports it. A
// non-nil tr is attached (Init) as the window opens.
func driveMachine(sys *soc.System, tr *trace.Tracer, seed uint64, n int) machineRun {
	eng := sys.Engine
	rng := stats.NewRNG(seed)
	eng.Run(eng.Now() + sim.Millisecond)
	w := sys.OpenWindow()
	if tr != nil {
		tr.Init(eng, sys.Cores)
	}
	for i := 0; i < n; i++ {
		c := sys.Cores[rng.Uint64()%uint64(len(sys.Cores))]
		for k := rng.Uint64() % 12; k > 0; k-- {
			c.Enqueue(cpu.Work{Duration: sim.Duration(1+rng.Uint64()%40) * sim.Microsecond})
		}
		sys.MemAccess(int(rng.Uint64() % 6))
		eng.Run(eng.Now() + sim.Duration(rng.Uint64()%150)*sim.Microsecond)
	}
	out := machineRun{
		SoCWatts:  w.Watts(power.Package),
		DRAMWatts: w.Watts(power.DRAM),
		PkgState:  sys.PackageState(),
		Events:    eng.EventsFired(),
		Now:       eng.Now(),
	}
	out.PC1A, out.PC1AEntries, _ = w.PC1A()
	for _, c := range sys.Cores {
		out.WorkDone = append(out.WorkDone, c.WorkDone())
		out.Wakes = append(out.Wakes, c.Wakes(cpu.CC1), c.Wakes(cpu.CC6))
	}
	for _, l := range sys.Links {
		out.StandbyEntries = append(out.StandbyEntries, l.StandbyEntries())
	}
	for _, mc := range sys.MCs {
		out.MCs = append(out.MCs, mc.Accesses(), mc.CKEEntries())
	}
	for s := cpu.CC0; s <= cpu.CC6; s++ {
		out.Residency = append(out.Residency, w.Residency(s))
	}
	all, censored := w.AllIdle()
	out.Residency = append(out.Residency, all, censored)
	if tr != nil {
		tr.Finalize()
		h, a := tr.IdlePeriods(), tr.ActiveCoresAfterIdle()
		out.Tracer = append(out.Tracer, tr.AllIdleFraction(), float64(tr.IdlePeriodCount()),
			h.Sum(), h.Quantile(0.5), h.Quantile(0.9), float64(a.Count()), a.Mean())
	}
	return out
}

// serveRun drives a generator of spec into srv over two windows.
func serveRun(srv *server.Server, g *workload.Generator) machineRun {
	sys := srv.System()
	eng := sys.Engine
	windows(eng, g.Start)
	eng.Run(eng.Now() + sim.Millisecond) // drain
	lat := srv.Latencies()
	out := machineRun{Served: srv.Served(), MeanLatency: lat.Mean(), P99Latency: lat.Quantile(0.99),
		SoCWatts: sys.SoCPower(), Events: eng.EventsFired(), Now: eng.Now()}
	for _, c := range sys.Cores {
		out.WorkDone = append(out.WorkDone, c.WorkDone())
	}
	return out
}

// graphPoint measures cfg through r (nil: a fresh graph).
func graphPoint(t *testing.T, r *GraphReuse, cfg GraphConfig, seed uint64) GraphMeasurement {
	t.Helper()
	var g *Graph
	var err error
	if r == nil {
		g, err = NewGraph(cfg, seed)
	} else {
		g, err = r.Graph(cfg, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g.Measure(2*sim.Millisecond, 10*sim.Millisecond)
}

// reusedGraph measures b, then a, through one GraphReuse, and checks
// that the second point reset the first point's graph.
func reusedGraph(t *testing.T, b, a GraphConfig, seedB, seedA uint64) GraphMeasurement {
	t.Helper()
	var r GraphReuse
	graphPoint(t, &r, b, seedB)
	first := r.g
	out := graphPoint(t, &r, a, seedA)
	if r.g != first {
		t.Fatal("GraphReuse rebuilt instead of resetting a same-shape graph")
	}
	return out
}

func resetEqualsFreshCases(t *testing.T, specA, specB workload.Spec) []resetCase {
	cpc1a := soc.DefaultConfig(soc.CPC1A)

	// A recorded stream for the replay case, and a fleet that replays
	// it through one Replay that each build rebinds.
	path := filepath.Join(t.TempDir(), "a.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Synthesize(f, specA, 5, 2*sim.Millisecond, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	f.Close()
	replayTier := func(t *testing.T, rp *replay.Replay, cfg Config) GraphConfig {
		cfg.NewSource = func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
			if err := rp.Bind(eng, sink); err != nil {
				t.Fatal(err)
			}
			return rp
		}
		return oneTier(cfg, rp.Header().Spec())
	}
	openReplay := func(t *testing.T) *replay.Replay {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		rd, err := replay.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := replay.New(rd, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}

	fleetA := resetConfig(Config{Policy: PowerAware, P99Target: 300 * sim.Microsecond})
	faultsA := resetConfig(resetCases[3].cfg)
	graphA, graphB := twoTierConfig(0.9, 200*sim.Microsecond, 2), twoTierConfig(0.5, 0, 1)
	graphA.Tiers[0].Spec, graphB.Tiers[0].Spec = specA, specB

	return []resetCase{
		{"Engine", func(*testing.T) any {
			return engineRun(sim.NewEngine(), 7, 200, 2*sim.Millisecond)
		}, func(*testing.T) any {
			eng := sim.NewEngine()
			engineRun(eng, 3, 500, 300*sim.Microsecond) // leaves events pending
			eng.Reset()
			return engineRun(eng, 7, 200, 2*sim.Millisecond)
		}},
		{"Generator", func(*testing.T) any {
			eng := sim.NewEngine()
			g, out := recordingGenerator(eng, specA, 7)
			windows(eng, g.Start)
			return arrivalRun{*out, g.Generated(), eng.Now()}
		}, func(*testing.T) any {
			eng := sim.NewEngine()
			g, out := recordingGenerator(eng, specB, 3)
			windows(eng, g.Start)
			eng.Reset()
			*out = nil
			g.Reset(specA, 7)
			windows(eng, g.Start)
			return arrivalRun{*out, g.Generated(), eng.Now()}
		}},
		{"PushSource", func(*testing.T) any {
			eng := sim.NewEngine()
			p, out := recordingPush(eng, specA, 7)
			return pushRun(eng, p, out, 300)
		}, func(*testing.T) any {
			eng := sim.NewEngine()
			p, out := recordingPush(eng, specB, 3)
			pushRun(eng, p, out, 700)
			eng.Reset()
			*out = nil
			p.Reset(specA, 7)
			return pushRun(eng, p, out, 300)
		}},
		{"sim.Pool", func(*testing.T) any {
			return poolRun(sim.NewEngine(), new(sim.Pool[resetRec]), 7, 100, 2*sim.Millisecond)
		}, func(*testing.T) any {
			eng, pool := sim.NewEngine(), new(sim.Pool[resetRec])
			poolRun(eng, pool, 3, 300, 200*sim.Microsecond) // strands records in flight
			eng.Reset()
			return poolRun(eng, pool, 7, 100, 2*sim.Millisecond)
		}},
		{"System", func(*testing.T) any {
			return driveMachine(soc.NewOnEngine(cpc1a, sim.NewEngine()), nil, 7, 150)
		}, func(*testing.T) any {
			// B is another kind, so the rewind also changes the shape of
			// the governors and the package controllers.
			eng := sim.NewEngine()
			sys := soc.NewOnEngine(soc.DefaultConfig(soc.Cdeep), eng)
			driveMachine(sys, nil, 3, 400)
			eng.Reset()
			return driveMachine(sys.Init(cpc1a, eng), nil, 7, 150)
		}},
		{"Tracer.Rearm", func(*testing.T) any {
			sys := soc.NewOnEngine(cpc1a, sim.NewEngine())
			return driveMachine(sys, new(trace.Tracer), 7, 150)
		}, func(*testing.T) any {
			// One tracer kept across the rewind and re-armed on the
			// rebuilt cores, as a sweep keeps its tracer between points.
			eng := sim.NewEngine()
			sys := soc.NewOnEngine(cpc1a, eng)
			tr := new(trace.Tracer)
			driveMachine(sys, tr, 3, 400)
			eng.Reset()
			return driveMachine(sys.Init(cpc1a, eng), tr, 7, 150)
		}},
		{"Server", func(*testing.T) any {
			eng := sim.NewEngine()
			srv := server.NewClosedLoop(soc.NewOnEngine(cpc1a, eng), server.DefaultConfig())
			return serveRun(srv, workload.NewGenerator(eng, specA, 7, func(r *workload.Request) { srv.Submit(r, nil) }))
		}, func(*testing.T) any {
			eng := sim.NewEngine()
			sys := soc.NewOnEngine(cpc1a, eng)
			srv := server.NewClosedLoop(sys, server.DefaultConfig())
			g := workload.NewGenerator(eng, specB, 3, func(r *workload.Request) { srv.Submit(r, nil) })
			serveRun(srv, g)
			eng.Reset()
			srv.Init(sys.Init(cpc1a, eng), server.DefaultConfig())
			g.Reset(specA, 7)
			return serveRun(srv, g)
		}},
		{"Fleet", func(t *testing.T) any {
			return graphPoint(t, nil, oneTier(fleetA, specA), 7)
		}, func(t *testing.T) any {
			return reusedGraph(t, oneTier(dirtyConfig(Topology{}), specB), oneTier(fleetA, specA), 3, 7)
		}},
		{"fault layer", func(t *testing.T) any {
			return graphPoint(t, nil, oneTier(faultsA, specA), 7)
		}, func(t *testing.T) any {
			dirty := dirtyConfig(faultsA.Topology)
			dirty.Faults = FaultConfig{MTBF: 5 * sim.Millisecond, MTTR: sim.Millisecond, RequestTimeout: sim.Millisecond, MaxRetries: 1}
			return reusedGraph(t, oneTier(dirty, specB), oneTier(faultsA, specA), 3, 7)
		}},
		{"Graph", func(t *testing.T) any {
			return graphPoint(t, nil, graphA, 7)
		}, func(t *testing.T) any {
			return reusedGraph(t, graphB, graphA, 3, 7)
		}},
		{"replay source", func(t *testing.T) any {
			return graphPoint(t, nil, replayTier(t, openReplay(t), fleetA), 7)
		}, func(t *testing.T) any {
			rp := openReplay(t)
			return reusedGraph(t, replayTier(t, rp, dirtyConfig(Topology{})), replayTier(t, rp, fleetA), 3, 7)
		}},
	}
}

// engineRun schedules n events at seeded instants, cancels every third,
// and runs to until; it reports the firing order and times, then the
// engine's counters.
func engineRun(eng *sim.Engine, seed uint64, n int, until sim.Time) []int64 {
	rng := stats.NewRNG(seed)
	var fired []int64
	evs := make([]sim.Event, n)
	for i := range evs {
		evs[i] = eng.Schedule(sim.Duration(rng.Uint64()%1000)*sim.Microsecond, sim.Func(func() {
			fired = append(fired, int64(i), int64(eng.Now()))
		}))
	}
	for i := 0; i < n; i += 3 {
		evs[i].Cancel()
	}
	eng.Run(until)
	return append(fired, int64(eng.Pending()), int64(eng.EventsFired()))
}

// recordingGenerator returns a generator whose sink copies every
// request out and releases it.
func recordingGenerator(eng *sim.Engine, spec workload.Spec, seed uint64) (*workload.Generator, *[]workload.Request) {
	out := new([]workload.Request)
	var g *workload.Generator
	g = workload.NewGenerator(eng, spec, seed, func(r *workload.Request) {
		*out = append(*out, *r)
		g.Release(r)
	})
	return g, out
}

// recordingPush is recordingGenerator for a push source.
func recordingPush(eng *sim.Engine, spec workload.Spec, seed uint64) (*workload.PushSource, *[]workload.Request) {
	out := new([]workload.Request)
	var p *workload.PushSource
	p = workload.NewPushSource(eng, spec, seed, func(r *workload.Request) {
		*out = append(*out, *r)
		p.Release(r)
	})
	return p, out
}

// pushRun emits n requests on p, one every 7 µs over rotating
// connections.
func pushRun(eng *sim.Engine, p *workload.PushSource, out *[]workload.Request, n int) arrivalRun {
	for i := 0; i < n; i++ {
		eng.At(sim.Time(i)*7*sim.Microsecond, sim.Func(func() { p.Emit(i % 13) }))
	}
	eng.Run(sim.Time(n) * 7 * sim.Microsecond)
	return arrivalRun{*out, p.Generated(), eng.Now()}
}

// poolRun schedules n pooled records at seeded delays and runs to
// until, reporting each record's value and firing time in firing order.
func poolRun(eng *sim.Engine, pool *sim.Pool[resetRec], seed uint64, n int, until sim.Time) []int64 {
	rng := stats.NewRNG(seed)
	var out []int64
	for i := 0; i < n; i++ {
		r, _ := pool.Get()
		*r = resetRec{v: int64(rng.Uint64() % 1000), eng: eng, out: &out, pool: pool}
		eng.Schedule(sim.Duration(r.v)*sim.Microsecond, r)
	}
	eng.Run(until)
	return out
}
