package agilepkgc_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// runs the corresponding experiment end to end and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` both
// exercises the harness and prints the reproduced results:
//
//	BenchmarkTable1  — watts per package C-state, PC6/PC1A speedup
//	BenchmarkTable2  — state-availability matrix
//	BenchmarkSec54   — component power deltas
//	BenchmarkSec55   — PC1A transition latency
//	BenchmarkEq1     — analytic savings model
//	BenchmarkFig5    — Cshallow vs Cdeep latency
//	BenchmarkFig6    — PC1A opportunity
//	BenchmarkFig7    — PC1A savings and impact
//	BenchmarkFig8    — MySQL
//	BenchmarkFig9    — Kafka
//	BenchmarkArea    — die-area budget

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// benchOptions keeps per-iteration virtual time moderate so the full
// bench suite completes quickly while still exercising every flow.
// Sweeps run serially so per-figure numbers are comparable across
// machines; the *Parallel variants below measure the fan-out speedup.
func benchOptions() experiments.Options {
	return experiments.Options{Duration: 100 * sim.Millisecond, Seed: 1, Parallelism: 1}
}

// benchParallelOptions fans sweep points across all CPUs.
func benchParallelOptions() experiments.Options {
	o := benchOptions()
	o.Parallelism = runtime.GOMAXPROCS(0)
	return o
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(benchOptions())
	}
	b.ReportMetric(r.PC1ASoC, "PC1A-SoC-W")
	b.ReportMetric(r.PC0IdleSoC, "PC0idle-SoC-W")
	b.ReportMetric(r.Speedup(), "PC6/PC1A-speedup-x")
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table2(benchOptions()).Rows)
	}
	b.ReportMetric(float64(rows), "states")
}

func BenchmarkSec54(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Sec54Result
	for i := 0; i < b.N; i++ {
		r = experiments.Sec54(benchOptions())
	}
	b.ReportMetric(r.PcoresDiff, "Pcores-diff-W")
	b.ReportMetric(r.PIOsDiff, "PIOs-diff-W")
	b.ReportMetric(r.PsocPC1A, "Psoc-PC1A-W")
}

func BenchmarkSec55(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Sec55Result
	for i := 0; i < b.N; i++ {
		r = experiments.Sec55(benchOptions())
	}
	b.ReportMetric(float64(r.Total), "PC1A-entry+exit-ns")
	b.ReportMetric(r.Speedup, "speedup-x")
}

func BenchmarkEq1(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Eq1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Eq1(benchOptions())
	}
	b.ReportMetric(r.Idle.SavingsFrac*100, "idle-savings-%")
	b.ReportMetric(r.At5pct.SavingsFrac*100, "savings@5%-%")
}

func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5(benchOptions(), []float64{4000, 50000, 300000})
	}
	low := r.Points[0]
	b.ReportMetric(low.DeepMean/low.ShallowMean, "Cdeep/Cshallow-mean@4K-x")
	hi := r.Points[2]
	b.ReportMetric(hi.DeepP99/hi.ShallowP99, "Cdeep/Cshallow-p99@300K-x")
}

func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(benchOptions(), []float64{4000, 50000})
	}
	b.ReportMetric(r.Points[0].AllIdleCensored*100, "PC1A-opportunity@4K-%")
	b.ReportMetric(r.Points[1].AllIdleCensored*100, "PC1A-opportunity@50K-%")
}

func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(benchOptions(), []float64{4000, 50000})
	}
	b.ReportMetric(r.Idle.SavingsVsShallow*100, "idle-savings-%")
	b.ReportMetric(r.Points[0].SavingsFrac*100, "savings@4K-%")
	b.ReportMetric(r.Points[1].SavingsFrac*100, "savings@50K-%")
	b.ReportMetric(r.Points[1].ImpactFrac*100, "latency-impact@50K-%")
}

// BenchmarkFig5Parallel / BenchmarkFig7Parallel are the same sweeps as
// their serial counterparts with points fanned across all CPUs; the
// ns/op ratio against the serial bench is the sweep-layer speedup, and
// the results are bit-identical (TestSerialParallelBitIdentical).
func BenchmarkFig5Parallel(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5(benchParallelOptions(), []float64{4000, 50000, 300000})
	}
	low := r.Points[0]
	b.ReportMetric(low.DeepMean/low.ShallowMean, "Cdeep/Cshallow-mean@4K-x")
}

func BenchmarkFig7Parallel(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(benchParallelOptions(), []float64{4000, 50000})
	}
	b.ReportMetric(r.Idle.SavingsVsShallow*100, "idle-savings-%")
	b.ReportMetric(r.Points[1].SavingsFrac*100, "savings@50K-%")
}

func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.WorkloadResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(benchOptions())
	}
	b.ReportMetric(r.Points[0].PowerReduction*100, "reduction@low-%")
	b.ReportMetric(r.Points[len(r.Points)-1].PowerReduction*100, "reduction@high-%")
}

func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.WorkloadResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(benchOptions())
	}
	b.ReportMetric(r.Points[0].PowerReduction*100, "reduction@low-%")
	b.ReportMetric(r.Points[1].PowerReduction*100, "reduction@high-%")
}

func BenchmarkSensitivity(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.SensitivityResult
	for i := 0; i < b.N; i++ {
		r = experiments.Sensitivity(benchOptions())
	}
	b.ReportMetric(r.Ablations[0].IdleSavings*100, "full-APC-idle-savings-%")
	b.ReportMetric(float64(r.PLLOffExit)/float64(r.PLLOnExit), "PLL-relock-exit-penalty-x")
}

func BenchmarkBatchingExtension(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.BatchingResult
	for i := 0; i < b.N; i++ {
		r = experiments.Batching(benchOptions(), 50000, experiments.DefaultBatchingEpochs)
	}
	off, on := r.Points[0], r.Points[len(r.Points)-1]
	b.ReportMetric(off.SavingsFrac*100, "savings-unbatched-%")
	b.ReportMetric(on.SavingsFrac*100, "savings-batched-%")
}

func BenchmarkArea(b *testing.B) {
	b.ReportAllocs()
	var r experiments.AreaResult
	for i := 0; i < b.N; i++ {
		experiments.AreaInto(&r, experiments.DefaultAreaModel())
	}
	b.ReportMetric(r.Total*100, "die-area-%")
}

// benchmarkFleetRouting measures the balancer's hot path: one
// iteration advances a live 8-server power_aware fleet by 1 ms of
// virtual time (~300 routed requests plus every machine event behind
// them). The three variants bound the PR 5 controller's cost — the
// drain decision is a per-arrival scan and the feedback recompute is
// one engine event per epoch, so Drain/Feedback must stay within a few
// percent of the static baseline (the BENCH_pr5.json snapshot records
// the comparison).
func benchmarkFleetRouting(b *testing.B, hold, epoch sim.Duration, faults cluster.FaultConfig) {
	b.ReportAllocs()
	members := make([]cluster.MemberConfig, 8)
	for i := range members {
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	}
	fl, err := cluster.New(cluster.Config{
		Policy:        cluster.PowerAware,
		P99Target:     300 * sim.Microsecond,
		Topology:      cluster.Flat(8),
		DrainHold:     hold,
		FeedbackEpoch: epoch,
		Faults:        faults,
		Members:       members,
	}, workload.MemcachedBursty(300000, 8), 1)
	if err != nil {
		b.Fatal(err)
	}
	fl.Run(sim.Millisecond) // prime the pipeline outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Run(sim.Millisecond)
	}
	b.ReportMetric(float64(fl.Generated())/float64(b.N+1), "req/iter")
}

// BenchmarkFleetRouting doubles as the disabled-fault-path baseline:
// the PR 6 route hook is one nil check, so this number must stay within
// a few percent of the BENCH_pr5.json snapshot.
func BenchmarkFleetRouting(b *testing.B) { benchmarkFleetRouting(b, 0, 0, cluster.FaultConfig{}) }

func BenchmarkFleetRoutingDrain(b *testing.B) {
	benchmarkFleetRouting(b, 1000*sim.Microsecond, 0, cluster.FaultConfig{})
}

func BenchmarkFleetRoutingFeedback(b *testing.B) {
	benchmarkFleetRouting(b, 1000*sim.Microsecond, 1000*sim.Microsecond, cluster.FaultConfig{})
}

// BenchmarkFleetRoutingFaults prices the full fault stack: crash
// injection, per-request timeout timers, bounded retries and hedging on
// every routed request.
func BenchmarkFleetRoutingFaults(b *testing.B) {
	benchmarkFleetRouting(b, 0, 0, cluster.FaultConfig{
		MTBF:           20 * sim.Millisecond,
		MTTR:           2 * sim.Millisecond,
		RequestTimeout: 2 * sim.Millisecond,
		MaxRetries:     2,
		HedgeDelay:     500 * sim.Microsecond,
	})
}

// BenchmarkFleetRoutingTiered prices the service-graph layer: the same
// 8-server power_aware front fleet as BenchmarkFleetRouting, with a
// 4-server mysql backend behind a lossy fan-out edge. One iteration
// advances the shared engine by 1 ms — front routing plus the miss
// decision, TTL fill-table lookup, fan-out emission and join
// bookkeeping on every front response, plus the backend fleet's own
// routing. The delta against BenchmarkFleetRouting is the per-request
// graph tax, and the allocs/op gate pins it at zero.
func BenchmarkFleetRoutingTiered(b *testing.B) {
	b.ReportAllocs()
	tier := func(n int, target sim.Duration, spec workload.Spec) cluster.TierConfig {
		members := make([]cluster.MemberConfig, n)
		for i := range members {
			members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
		}
		return cluster.TierConfig{
			Name: spec.Name,
			Cluster: cluster.Config{
				Policy:    cluster.PowerAware,
				P99Target: target,
				Topology:  cluster.Flat(n),
				Members:   members,
			},
			Spec: spec,
		}
	}
	g, err := cluster.NewGraph(cluster.GraphConfig{
		Tiers: []cluster.TierConfig{
			tier(8, 300*sim.Microsecond, workload.MemcachedBursty(300000, 8)),
			tier(4, 2*sim.Millisecond, workload.MySQL(0.1, 4)),
		},
		Edges: []cluster.EdgeConfig{
			{From: 0, To: 1, HitRatio: 0.8, TTL: 500 * sim.Microsecond, Fanout: 2},
		},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	// The long prime fills the join pool and the backend's heavy-tailed
	// latency histograms, same as the tiered allocs gate.
	g.Run(20 * sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(sim.Millisecond)
	}
	b.ReportMetric(float64(g.TierFleet(0).Generated())/float64(b.N+20), "req/iter")
}

// BenchmarkFleetRoutingReplay prices the recorded-arrival hot path: the
// same 8-server power_aware fleet as BenchmarkFleetRouting, driven by a
// looping in-memory recording of the identical bursty stream instead of
// the live generator. The delta against BenchmarkFleetRouting is the
// cost of streamed decode + absolute-time scheduling, and the allocs/op
// gate pins it at zero like the synthetic path.
func BenchmarkFleetRoutingReplay(b *testing.B) {
	b.ReportAllocs()
	var buf replay.MemBuffer
	if _, err := replay.Synthesize(&buf, workload.MemcachedBursty(300000, 8), 1, 0, 20*sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	if _, err := buf.Seek(0, 0); err != nil {
		b.Fatal(err)
	}
	rd, err := replay.NewReader(&buf)
	if err != nil {
		b.Fatal(err)
	}
	rp, err := replay.New(rd, replay.Options{Loop: true})
	if err != nil {
		b.Fatal(err)
	}
	members := make([]cluster.MemberConfig, 8)
	for i := range members {
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	}
	fl, err := cluster.New(cluster.Config{
		Policy:    cluster.PowerAware,
		P99Target: 300 * sim.Microsecond,
		Topology:  cluster.Flat(8),
		Members:   members,
		NewSource: func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
			if err := rp.Bind(eng, sink); err != nil {
				b.Fatal(err)
			}
			return rp
		},
	}, rd.Header().Spec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	fl.Run(sim.Millisecond) // prime the pipeline outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Run(sim.Millisecond)
	}
	b.ReportMetric(float64(fl.Generated())/float64(b.N+1), "req/iter")
}

// BenchmarkLoadScenarioTrace prices loading a trace scenario: the JSON
// decode and validation plus the trace preflight, which reads only the
// header and name of the recording. The scenario mirrors the shape of
// perfbench's fleet-replay workload (a 2x4 rack_power_aware fleet
// replaying a bursty Memcached recording).
func BenchmarkLoadScenarioTrace(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	f, err := os.Create(filepath.Join(dir, "bursty.trace"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := replay.Synthesize(f, workload.MemcachedBursty(300000, 8), 1, 0, 20*sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "fleet-replay.json")
	if err := os.WriteFile(path, []byte(`{
  "name": "fleet-replay",
  "config": "CPC1A",
  "duration_ms": 1000,
  "workload": {"service": "trace", "trace": {"path": "bursty.trace"}},
  "cluster": {"servers": 8, "racks": 2, "tor_latency_us": 5,
              "policy": "rack_power_aware", "p99_target_us": 300,
              "drain_hold_us": 200, "feedback_epoch_us": 1000}
}`), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
