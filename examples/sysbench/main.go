// Closed-loop sysbench: drive MySQL-style OLTP through synchronous
// client threads (the way the paper's sysbench clients actually behave)
// instead of an open-loop rate, and sweep the thread count. Closed-loop
// load self-throttles, so the PC1A opportunity shifts with concurrency
// rather than arrival rate.
package main

import (
	"fmt"

	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func main() {
	const window = 500 * sim.Millisecond
	fmt.Println("threads  completed   tps      mean-lat   PC1A-res   power")

	for _, threads := range []int{4, 16, 64} {
		sys := soc.New(soc.DefaultConfig(soc.CPC1A))
		srv := server.NewClosedLoop(sys, server.DefaultConfig())
		cl := workload.SysbenchOLTP(sys.Engine, threads, 2e-3, 1, srv.Submit)

		cl.Start()
		snap := sys.Meter.Snapshot()
		sys.Engine.Run(sys.Engine.Now() + window)
		cl.Stop()
		sys.Engine.Run(sys.Engine.Now() + 20*sim.Millisecond) // drain

		tps := float64(cl.Completed()) / window.Seconds()
		res := float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
		fmt.Printf("%-7d  %-9d  %-7.0f  %-8.1fus %6.1f%%    %5.1fW\n",
			threads, cl.Completed(), tps,
			srv.Latencies().Mean()*1e6, res*100, snap.AverageTotal())
	}
	fmt.Println("\nMore threads -> more concurrency -> less full-system idleness -> less PC1A.")
}
