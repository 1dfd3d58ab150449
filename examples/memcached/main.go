// Memcached sweep: the paper's headline experiment. Serve the ETC-style
// key-value workload across the low-load band on the Cshallow baseline
// and the CPC1A system, and report power savings and latency impact —
// the data behind paper Fig. 7.
package main

import (
	"fmt"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func main() {
	const window = 500 * sim.Millisecond
	fmt.Println("QPS     Cshallow    C_PC1A     saving   PC1A-res   mean-lat-impact")

	for _, qps := range []float64{0, 4000, 10000, 20000, 50000, 100000} {
		shW, shLat := run(soc.Cshallow, qps, window)
		apW, apLat := run(soc.CPC1A, qps, window)
		saving := (shW - apW) / shW

		// PC1A residency needs its own instrumented run.
		res := pc1aResidency(qps, window)

		impact := "-"
		if qps > 0 {
			impact = fmt.Sprintf("%+.4f%%", (apLat-shLat)/shLat*100)
		}
		fmt.Printf("%-6.0f  %6.1fW     %6.1fW    %5.1f%%   %5.1f%%     %s\n",
			qps, shW, apW, saving*100, res*100, impact)
	}
}

// run serves Memcached at qps on a fresh system and returns average
// SoC+DRAM watts and mean latency.
func run(kind soc.ConfigKind, qps float64, window sim.Duration) (watts, meanLat float64) {
	if qps == 0 {
		sys := soc.New(soc.DefaultConfig(kind))
		snap := sys.Meter.Snapshot()
		sys.Engine.Run(window)
		return snap.AverageTotal(), 0
	}
	f := machine(kind, qps)
	f.Run(window / 5) // warmup
	snap := f.Server(0).System().Meter.Snapshot()
	f.Run(window)
	return snap.AverageTotal(), f.Server(0).Latencies().Mean()
}

func pc1aResidency(qps float64, window sim.Duration) float64 {
	var sys *soc.System
	if qps > 0 {
		f := machine(soc.CPC1A, qps)
		sys = f.Server(0).System()
		f.Run(window)
	} else {
		sys = soc.New(soc.DefaultConfig(soc.CPC1A))
		sys.Engine.Run(window)
	}
	return float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
}

// machine builds one server of the given kind fed Memcached at qps: a
// one-member fleet, whose Run generates the load and then drains it.
func machine(kind soc.ConfigKind, qps float64) *cluster.Fleet {
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(kind), Server: server.DefaultConfig()}},
	}, workload.Memcached(qps), 1)
	if err != nil {
		panic(err)
	}
	return f
}
