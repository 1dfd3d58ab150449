package experiments

// trace-replay is the recorded-arrival counterpart of the synthetic
// cluster experiments: it records one bursty Memcached stream into the
// binary trace format (DESIGN.md §10), replays it through an identical
// fleet, and checks the two measurements bit for bit. The artifact is
// the determinism demonstration the replay subsystem's parity suite
// enforces in CI — a trace is a complete, portable substitute for the
// generator that produced it, not an approximation of one.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// Fixed operating point of the trace-replay demonstration.
const (
	// DefaultTraceQPS and DefaultTraceBurstiness pick a bursty stream:
	// burstiness is where replay fidelity matters most, because the
	// MMPP2 phase state makes approximate reproduction impossible.
	DefaultTraceQPS        = 200000.0
	DefaultTraceBurstiness = 8.0
	// DefaultTraceServers sizes the fleet the stream is balanced over.
	DefaultTraceServers = 4
	// DefaultTraceP99Target is the latency budget the power_aware
	// policy packs against.
	DefaultTraceP99Target = 300 * sim.Microsecond
)

func init() {
	Define(200, "trace-replay",
		"record a bursty stream to the binary trace format, replay it, prove bit-identical measurements",
		func(o Options) (Result, error) { return TraceReplay(o) })
}

// TraceReplayResult is the trace-replay artifact: the same fleet
// measured twice, once driven by the generator and once by its
// recording.
type TraceReplayResult struct {
	Workload     string              `json:"workload"`
	AggregateQPS float64             `json:"aggregate_qps"`
	Burstiness   float64             `json:"burstiness"`
	Servers      int                 `json:"servers"`
	Records      uint64              `json:"records"`
	TraceBytes   int                 `json:"trace_bytes"`
	Duration     sim.Duration        `json:"duration_ns"`
	Synthetic    cluster.Measurement `json:"synthetic"`
	Replayed     cluster.Measurement `json:"replayed"`
	// Identical reports whether the replayed measurement matched the
	// synthetic one bit for bit — the tentpole parity contract.
	Identical bool `json:"identical"`
}

// TraceReplay records the generator's stream over the experiment's
// exact (warmup, duration) window, then measures one fleet per source.
// Both fleets are built from the same config and seed; the only
// difference is who emits the arrivals.
func TraceReplay(opt Options) (*TraceReplayResult, error) {
	specFn := func() workload.Spec {
		return workload.MemcachedBursty(DefaultTraceQPS, DefaultTraceBurstiness)
	}
	var buf replay.MemBuffer
	hdr, err := replay.Synthesize(&buf, specFn(), opt.Seed, opt.Warmup(), opt.Duration)
	if err != nil {
		return nil, fmt.Errorf("trace-replay: synthesize: %w", err)
	}

	cfg := cluster.Config{
		Policy:    cluster.PowerAware,
		P99Target: DefaultTraceP99Target,
		Topology:  cluster.Topology{Racks: 1, ServersPerRack: DefaultTraceServers},
	}
	synth := measureFleet(opt, cfg, specFn())

	if _, err := buf.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rd, err := replay.NewReader(&buf)
	if err != nil {
		return nil, fmt.Errorf("trace-replay: reopen recording: %w", err)
	}
	rp, err := replay.New(rd, replay.Options{})
	if err != nil {
		return nil, err
	}
	rcfg := cfg
	rcfg.NewSource = func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
		if err := rp.Bind(eng, sink); err != nil {
			panic(fmt.Sprintf("trace-replay: bind validated recording: %v", err))
		}
		return rp
	}
	replayed := measureFleet(opt, rcfg, hdr.Spec())

	return &TraceReplayResult{
		Workload:     hdr.Name,
		AggregateQPS: hdr.MeanQPS,
		Burstiness:   DefaultTraceBurstiness,
		Servers:      DefaultTraceServers,
		Records:      hdr.Count,
		TraceBytes:   len(buf.Bytes()),
		Duration:     opt.Duration,
		Synthetic:    synth,
		Replayed:     replayed,
		Identical:    measurementsEqual(synth, replayed),
	}, nil
}

// measureFleet measures one fleet of default CPC1A machines: cfg
// carries everything but the members, which are filled in from the
// topology. The fleet runs as a one-tier graph, as every fleet does,
// drawn from the keep like every sweep's machines.
func measureFleet(opt Options, cfg cluster.Config, spec workload.Spec) cluster.Measurement {
	cfg.Members = make([]cluster.MemberConfig, cfg.Topology.Servers())
	for i := range cfg.Members {
		cfg.Members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	}
	var r cluster.GraphReuse
	defer r.Release()
	g, err := r.Graph(cluster.GraphConfig{
		Tiers: []cluster.TierConfig{{Cluster: cfg, Spec: spec}},
	}, opt.Seed)
	if err != nil {
		// All inputs are compile-time constants; an error is a bug.
		panic(err)
	}
	return g.Measure(opt.Warmup(), opt.Duration).Tiers[0].Fleet
}

// measurementsEqual compares two measurements bit for bit through their
// canonical JSON form (Measurement holds slices and pointers, so == is
// unavailable; JSON equality is exactly the equality the artifact files
// expose).
func measurementsEqual(a, b cluster.Measurement) bool {
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(aj) == string(bj)
}

// Report implements Result.
func (r *TraceReplayResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace replay: bursty %.0f aggregate QPS %s on %d servers (power_aware, %v p99 target)\n",
		r.AggregateQPS, r.Workload, r.Servers, DefaultTraceP99Target)
	fmt.Fprintf(&b, "(recorded %d arrivals, %d bytes; replayed through an identical fleet)\n",
		r.Records, r.TraceBytes)
	t := &table{header: []string{"source", "generated", "served", "dropped", "p50", "p99", "fleet W", "all-idle", "PC1A res"}}
	for i, m := range [2]cluster.Measurement{r.Synthetic, r.Replayed} {
		t.add(Cells(traceSources[i], m.Generated, m.Served, m.Dropped, Micros(m.P50Latency), Micros(m.P99Latency),
			Watts(m.TotalWatts), Pct(m.AllIdle), PC1APct(m.PC1AResidency))...)
	}
	b.WriteString(t.String())
	if r.Identical {
		b.WriteString("replay == synthetic: every measured byte identical\n")
	} else {
		b.WriteString("replay != synthetic: MEASUREMENTS DIVERGED — replay determinism is broken\n")
	}
	return b.String()
}

// traceSources names the table rows: the synthetic fleet, then the
// replayed one.
var traceSources = [2]string{"synthetic", "replayed"}

// WriteCSV implements CSVWriter: one row per source.
func (r *TraceReplayResult) WriteCSV(w io.Writer) error {
	var rows [][]any
	for i, m := range [2]cluster.Measurement{r.Synthetic, r.Replayed} {
		rows = append(rows, []any{traceSources[i], m.Generated, m.Served, m.Dropped,
			m.MeanLatency, m.P50Latency, m.P99Latency, m.P999Latency, m.SoCWatts, m.DRAMWatts, m.TotalWatts,
			m.AllIdle, Opt(m.PC1AResidency), r.Identical})
	}
	return WriteCSVTable(w, "source,generated,served,dropped,mean_s,p50_s,p99_s,p999_s,soc_w,dram_w,total_w,all_idle,pc1a_residency,identical", rows)
}
