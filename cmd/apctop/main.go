// Command apctop is a powertop-style observer for the simulated server:
// it runs a workload on a chosen configuration and reports per-interval
// power and residency — reading *only* the emulated RAPL MSRs and
// residency counters (internal/msr), the same interface the real tools
// use, rather than the simulator's native accounting.
//
// Usage:
//
//	apctop [-config cpc1a|cshallow|cdeep] [-qps 20000] [-intervals 10]
//	       [-interval 100ms]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/msr"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// readoutHeader is the MSR-readout column header; the smoke test
// (main_test.go) asserts one interval of output starts with it.
const readoutHeader = "interval   pkg-W    dram-W   CC1-res%   PC1A-res%  served"

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "apctop: %v\n", err)
		os.Exit(1)
	}
}

// run executes the whole observer against w, so the CI smoke test can
// drive it in-process; only flag parsing stays in the flag package's
// hands (ContinueOnError, so bad flags surface as an error, not an
// exit).
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("apctop", flag.ContinueOnError)
	fs.SetOutput(w)
	configName := fs.String("config", "cpc1a", "system configuration: cshallow, cdeep, cpc1a")
	qps := fs.Float64("qps", 20000, "memcached request rate (0 = idle)")
	intervals := fs.Int("intervals", 10, "number of reporting intervals")
	interval := fs.Duration("interval", 100*time.Millisecond, "virtual time per interval")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h printed the usage; that is success, not an error.
			return nil
		}
		return err
	}

	var kind soc.ConfigKind
	switch strings.ToLower(*configName) {
	case "cshallow":
		kind = soc.Cshallow
	case "cdeep":
		kind = soc.Cdeep
	case "cpc1a":
		kind = soc.CPC1A
	default:
		return fmt.Errorf("unknown config %q", *configName)
	}
	if *intervals < 1 {
		return fmt.Errorf("intervals must be at least 1 (got %d)", *intervals)
	}
	if *interval <= 0 {
		return fmt.Errorf("interval must be positive (got %v)", *interval)
	}

	// Under load the machine is a one-member fleet, whose Run is the
	// window-then-drain loop; idle, it is a bare system on raw engine
	// time.
	var sys *soc.System
	var f *cluster.Fleet
	if *qps > 0 {
		var err error
		f, err = cluster.New(cluster.Config{
			Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(kind), Server: server.DefaultConfig()}},
		}, workload.Memcached(*qps), 1)
		if err != nil {
			return err
		}
		sys = f.Server(0).System()
	} else {
		sys = soc.New(soc.DefaultConfig(kind))
	}
	mon := msr.NewMonitor(sys)

	var readErr error
	read := func(addr uint32, core int) uint64 {
		v, err := mon.Read(addr, core)
		if err != nil && readErr == nil {
			readErr = err
		}
		return v
	}

	fmt.Fprintf(w, "apctop: %s, %s, %.0f QPS, %d x %v intervals\n\n",
		kind, sys.Cores[0].Governor(), *qps, *intervals, *interval)
	fmt.Fprintln(w, readoutHeader)

	dt := sim.Duration((*interval).Nanoseconds())
	var servedPrev uint64
	for i := 0; i < *intervals; i++ {
		pkg0 := read(msr.MSRPkgEnergyStatus, 0)
		dram0 := read(msr.MSRDramEnergyStatus, 0)
		var cc10 uint64
		for c := range sys.Cores {
			cc10 += read(msr.MSRCoreC1Residency, c)
		}
		pc1a0 := sim.Duration(0)
		if sys.APMU != nil {
			pc1a0 = sys.APMU.Residency(pmu.PC1A)
		}

		if f != nil {
			f.Run(dt)
		} else {
			sys.Engine.Run(sys.Engine.Now() + dt)
		}

		pkg1 := read(msr.MSRPkgEnergyStatus, 0)
		dram1 := read(msr.MSRDramEnergyStatus, 0)
		var cc11 uint64
		for c := range sys.Cores {
			cc11 += read(msr.MSRCoreC1Residency, c)
		}
		if readErr != nil {
			return readErr
		}
		wall := dt.Seconds()
		pkgW := msr.EnergyDelta(pkg0, pkg1) / wall
		dramW := msr.EnergyDelta(dram0, dram1) / wall
		cc1Res := float64(cc11-cc10) / msr.TSCHz / wall / float64(len(sys.Cores))

		pc1aRes := 0.0
		if sys.APMU != nil {
			pc1aRes = (sys.APMU.Residency(pmu.PC1A) - pc1a0).Seconds() / wall
		}
		served := uint64(0)
		if f != nil {
			served = f.Server(0).Served() - servedPrev
			servedPrev = f.Server(0).Served()
		}
		fmt.Fprintf(w, "%-9d  %6.2f   %6.2f   %7.1f    %7.1f    %d\n",
			i, pkgW, dramW, cc1Res*100, pc1aRes*100, served)
	}
	return nil
}
