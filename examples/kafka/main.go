// Kafka streaming: paper Fig. 9. Evaluate the bursty event-streaming
// workload at the paper's low/high loads (8%, 16%) and report the PC1A
// opportunity and power reduction.
package main

import (
	"fmt"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
)

func main() {
	const window = 500 * sim.Millisecond
	fmt.Println("load    QPS     all-idle  PC1A-res   Cshallow   C_PC1A   reduction")

	for _, load := range []float64{0.08, 0.16} {
		spec := workload.Kafka(load, 10)

		sh := machine(soc.Cshallow, spec)
		shSys := sh.Server(0).System()
		tr := trace.New(shSys.Engine, shSys.Cores)
		shSnap := shSys.Meter.Snapshot()
		sh.Run(window)
		tr.Finalize()
		shW := shSnap.AverageTotal()

		ap := machine(soc.CPC1A, spec)
		apSys := ap.Server(0).System()
		apSnap := apSys.Meter.Snapshot()
		ap.Run(window)
		apW := apSnap.AverageTotal()
		res := float64(apSys.APMU.Residency(pmu.PC1A)) / float64(apSys.Engine.Now())

		fmt.Printf("%4.0f%%  %6.0f   %6.1f%%   %6.1f%%    %6.1fW    %5.1fW    %5.1f%%\n",
			load*100, spec.MeanQPS(), tr.AllIdleFraction()*100, res*100,
			shW, apW, (shW-apW)/shW*100)
	}
	fmt.Println("\npaper Fig. 9: PC1A residency 15-47%; power reduction 9-19%")
}

// machine builds one server of the given kind fed spec: a one-member
// fleet, whose Run generates the load and then drains it.
func machine(kind soc.ConfigKind, spec workload.Spec) *cluster.Fleet {
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(kind), Server: server.DefaultConfig()}},
	}, spec, 1)
	if err != nil {
		panic(err)
	}
	return f
}
