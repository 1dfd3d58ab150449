package experiments

// tiered-cache lifts the energy-proportionality argument across a
// service graph: a memcached cache tier absorbs the client stream and
// forwards only its misses to a mysql backend fleet. Sweeping the
// edge's hit ratio starves the backend of traffic — its idle periods
// lengthen and its PC1A residency climbs — while the cache tier, which
// sees the full client load at every point, stays flat. The artifact
// is the fleet-level analogue of the paper's per-SoC low-load story:
// the deeper the cache, the closer the backend gets to the all-idle
// package state.

import (
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// DefaultTieredHitRatios is the hit-ratio sweep the registered
// tiered-cache artifact runs.
var DefaultTieredHitRatios = []float64{0.5, 0.7, 0.9, 0.99}

// Fixed operating point of the tiered-cache experiment.
const (
	// DefaultTieredQPS is the client arrival rate into the cache tier.
	DefaultTieredQPS = 60000.0
	// DefaultTieredCacheServers / DefaultTieredBackendServers size the
	// two fleets: the cache tier is wide (it sees the full stream), the
	// backend narrow (it sees only misses).
	DefaultTieredCacheServers   = 4
	DefaultTieredBackendServers = 2
	// DefaultTieredTTL is the cache entry lifetime on the edge: long
	// against the per-connection inter-arrival time (~3.3ms at 60k QPS
	// over 200 connections), so the swept Bernoulli hit ratio — not TTL
	// churn — decides the miss stream, while expiries stay visible in
	// the ttl_misses column.
	DefaultTieredTTL = 20 * sim.Millisecond
	// DefaultTieredBackendP99Target budgets the mysql tier's packing:
	// its heavy-tailed service times need a looser target than the
	// cache tier's DefaultClusterP99Target.
	DefaultTieredBackendP99Target = 2 * sim.Millisecond
)

func init() {
	Define(210, "tiered-cache",
		"backend PC1A residency vs cache hit ratio through a two-tier service graph",
		func(o Options) (Result, error) { return TieredCache(o, DefaultTieredHitRatios) })
}

// TieredPoint is one measured operating point of the two-tier graph.
type TieredPoint struct {
	HitRatio float64             `json:"hit_ratio"`
	Cache    cluster.Measurement `json:"cache"`
	Backend  cluster.Measurement `json:"backend"`
	Edge     cluster.EdgeStats   `json:"edge"`
	Client   cluster.ClientStats `json:"client"`
}

// tieredGraphConfig assembles the two-tier graph at one hit ratio. The
// backend spec's rate is the expected miss stream — it names the
// operating point; the graph's push source takes its arrival instants
// from the cache tier's misses, not from the spec.
func tieredGraphConfig(hitRatio float64, seed uint64) cluster.GraphConfig {
	cores := soc.DefaultConfig(soc.CPC1A).CoreCount
	missRate := DefaultTieredQPS * (1 - hitRatio)
	probe := workload.MySQL(1, cores)
	backendSpec := workload.MySQL(missRate*probe.Service.Mean()/float64(cores), cores)
	return cluster.GraphConfig{
		Tiers: []cluster.TierConfig{
			{
				Name: "cache",
				Cluster: cluster.Config{
					Policy:    cluster.PowerAware,
					P99Target: DefaultClusterP99Target,
					Topology:  cluster.Flat(DefaultTieredCacheServers),
					Members:   fleetMembers(DefaultTieredCacheServers, seed),
				},
				Spec: workload.Memcached(DefaultTieredQPS),
			},
			{
				Name: "db",
				Cluster: cluster.Config{
					Policy:    cluster.PowerAware,
					P99Target: DefaultTieredBackendP99Target,
					Topology:  cluster.Flat(DefaultTieredBackendServers),
					Members:   fleetMembers(DefaultTieredBackendServers, seed),
				},
				Spec: backendSpec,
			},
		},
		Edges: []cluster.EdgeConfig{
			{From: 0, To: 1, HitRatio: hitRatio, TTL: DefaultTieredTTL},
		},
	}
}

// TieredCacheResult is the tiered-cache artifact.
type TieredCacheResult struct {
	QPS            float64       `json:"qps"`
	CacheServers   int           `json:"cache_servers"`
	BackendServers int           `json:"backend_servers"`
	TTL            sim.Duration  `json:"ttl_ns"`
	Duration       sim.Duration  `json:"duration_ns"`
	Points         []TieredPoint `json:"points"`
}

// TieredCache measures the two-tier graph at each hit ratio. Each point
// is an independent graph on its own engine, reset-reused through the
// worker pool like every other sweep.
func TieredCache(opt Options, hitRatios []float64) (*TieredCacheResult, error) {
	if len(hitRatios) == 0 {
		return nil, fmt.Errorf("tiered-cache: no hit ratios")
	}
	for _, h := range hitRatios {
		if h < 0 || h >= 1 {
			return nil, fmt.Errorf("tiered-cache: hit ratio %g is outside [0, 1)", h)
		}
	}
	res := &TieredCacheResult{
		QPS:            DefaultTieredQPS,
		CacheServers:   DefaultTieredCacheServers,
		BackendServers: DefaultTieredBackendServers,
		TTL:            DefaultTieredTTL,
		Duration:       opt.Duration,
	}
	res.Points = SweepWith(opt, hitRatios, newReuse, func(reuse *cluster.GraphReuse, h float64) TieredPoint {
		g, err := reuse.Graph(tieredGraphConfig(h, opt.Seed), opt.Seed)
		if err != nil {
			// All inputs are compile-time constants; an error is a bug.
			panic(err)
		}
		gm := g.Measure(opt.Warmup(), opt.Duration)
		return TieredPoint{
			HitRatio: h,
			Cache:    gm.Tiers[0].Fleet,
			Backend:  gm.Tiers[1].Fleet,
			Edge:     gm.Edges[0],
			Client:   *gm.Client,
		}
	})
	return res, nil
}

// Report implements Result.
func (r *TieredCacheResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tiered cache: %.0f QPS Memcached through %d cache servers, misses to %d mysql backends (power_aware, %v TTL)\n",
		r.QPS, r.CacheServers, r.BackendServers, r.TTL)
	b.WriteString("(higher hit ratio starves the backend; its PC1A residency climbs while the cache tier stays flat)\n")
	t := &table{header: []string{"hit", "measured", "client p99", "backend QPS", "cache W", "backend W", "cache PC1A", "backend PC1A", "backend all-idle"}}
	for _, p := range r.Points {
		t.add(
			fmt.Sprintf("%.2f", p.HitRatio),
			fmt.Sprintf("%.3f", p.Edge.MeasuredHitRate),
			fmt.Sprintf("%.1fus", p.Client.P99Latency*1e6),
			fmt.Sprintf("%.0f", backendQPS(p.Backend)),
			fmt.Sprintf("%.1fW", p.Cache.TotalWatts),
			fmt.Sprintf("%.1fW", p.Backend.TotalWatts),
			residencyCell(p.Cache.PC1AResidency),
			residencyCell(p.Backend.PC1AResidency),
			pct(p.Backend.AllIdle),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// backendQPS is the miss stream's measured rate over the window.
func backendQPS(m cluster.Measurement) float64 {
	if m.Window <= 0 {
		return 0
	}
	return float64(m.ServedWindow) / m.Window.Seconds()
}

// residencyCell renders an optional PC1A residency for the report.
func residencyCell(res *float64) string {
	if res == nil {
		return "-"
	}
	return pct(*res)
}

// WriteCSV implements CSVWriter: one row per hit ratio with both tiers'
// aggregates and the edge counters.
func (r *TieredCacheResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "hit_ratio,measured_hit_rate,lookups,hits,misses,ttl_misses,issued,client_served,client_p50_s,client_p99_s,cache_total_w,cache_pc1a_residency,backend_total_w,backend_pc1a_residency,backend_all_idle"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%g,%g,%d,%d,%d,%d,%d,%d,%g,%g,%g,%s,%g,%s,%g\n",
			p.HitRatio, p.Edge.MeasuredHitRate,
			p.Edge.Lookups, p.Edge.Hits, p.Edge.Misses, p.Edge.TTLMisses, p.Edge.Issued,
			p.Client.Served, p.Client.P50Latency, p.Client.P99Latency,
			p.Cache.TotalWatts, pc1aCell(p.Cache.PC1AResidency),
			p.Backend.TotalWatts, pc1aCell(p.Backend.PC1AResidency),
			p.Backend.AllIdle); err != nil {
			return err
		}
	}
	return nil
}
