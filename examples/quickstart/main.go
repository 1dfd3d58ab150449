// Quickstart: assemble an AgilePkgC (CPC1A) server, let it idle into
// PC1A, then drive a burst of Memcached load and watch the package
// C-state, power and latency respond.
package main

import (
	"fmt"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func main() {
	// A 10-core Skylake-class server with the APC architecture, fed
	// Memcached at 50K QPS: a one-member fleet, whose generator only
	// starts when the fleet runs.
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{
			SoC:    soc.DefaultConfig(soc.CPC1A),
			Server: server.DefaultConfig(),
		}},
	}, workload.Memcached(50000), 1)
	if err != nil {
		panic(err)
	}
	srv := f.Server(0)
	sys := srv.System()

	// Let it idle: all cores sit in CC1, so the APMU drops the package
	// into PC1A within tens of nanoseconds. A measurement window reads
	// power and PC1A residency over exactly the interval it spans.
	idle := sys.OpenWindow()
	f.Engine().Run(10 * sim.Millisecond)
	res, _, _ := idle.PC1A()
	fmt.Printf("after 10ms idle:   state=%-5v  SoC=%5.1fW  DRAM=%4.2fW\n",
		sys.PackageState(), sys.SoCPower(), sys.DRAMPower())
	fmt.Printf("PC1A residency so far: %.1f%%\n", 100*res)

	// Now serve the load for 200ms of virtual time, then drain.
	load := sys.OpenWindow()
	f.Run(200 * sim.Millisecond)
	res, entries, _ := load.PC1A()

	fmt.Printf("\nafter 200ms at 50K QPS:\n")
	fmt.Printf("  served:        %d requests\n", srv.Served())
	fmt.Printf("  mean latency:  %.1fus (incl. 117us network)\n", srv.Latencies().Mean()*1e6)
	fmt.Printf("  p99 latency:   %.1fus\n", srv.Latencies().Quantile(0.99)*1e6)
	fmt.Printf("  avg power:     %.1fW (SoC+DRAM)\n", load.TotalWatts())
	fmt.Printf("  PC1A:          %.1f%% residency, %d entries\n", 100*res, entries)
	fmt.Printf("  state now:     %v (drained back to idle)\n", sys.PackageState())
}
