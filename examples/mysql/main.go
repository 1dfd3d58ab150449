// MySQL OLTP: paper Fig. 8. Evaluate the sysbench-style transactional
// workload at the paper's low/mid/high loads (8%, 16%, 42%) and report
// baseline residencies and the CPC1A power reduction.
package main

import (
	"fmt"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
)

func main() {
	const window = 500 * sim.Millisecond
	fmt.Println("load    QPS     CC0     CC1     all-idle   Cshallow   C_PC1A    reduction")

	for _, load := range []float64{0.08, 0.16, 0.42} {
		spec := workload.MySQL(load, 10)

		// Cshallow baseline with residency tracing.
		sh := machine(soc.Cshallow, spec)
		shSys := sh.Server(0).System()
		tr := trace.New(shSys.Engine, shSys.Cores)
		shSnap := shSys.Meter.Snapshot()
		sh.Run(window)
		tr.Finalize()
		shW := shSnap.AverageTotal()

		// CPC1A.
		ap := machine(soc.CPC1A, spec)
		apSys := ap.Server(0).System()
		apSnap := apSys.Meter.Snapshot()
		ap.Run(window)
		apW := apSnap.AverageTotal()

		fmt.Printf("%4.0f%%  %6.0f  %5.1f%%  %5.1f%%   %6.1f%%    %6.1fW    %6.1fW    %5.1f%%\n",
			load*100, spec.MeanQPS(),
			tr.MeanResidency(cpu.CC0)*100, tr.MeanResidency(cpu.CC1)*100,
			tr.AllIdleFraction()*100, shW, apW, (shW-apW)/shW*100)
	}
	fmt.Println("\npaper Fig. 8: all-idle 20-37% across loads; power reduction 7-14%")
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
