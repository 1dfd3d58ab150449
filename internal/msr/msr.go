// Package msr emulates the model-specific-register surface through which
// real tools observe the quantities this simulator computes natively:
//
//   - MSR_RAPL_POWER_UNIT / MSR_PKG_ENERGY_STATUS / MSR_DRAM_ENERGY_STATUS:
//     cumulative energy as a 32-bit counter in 15.3 µJ units that *wraps*
//     — the artifact every RAPL consumer (powertop, SoCWatch, the
//     paper's measurement scripts) must handle.
//   - Per-core C-state residency counters (MSR_CORE_C1/C6_RESIDENCY) and
//     package residency counters (MSR_PKG_C2/C6_RESIDENCY), counting at
//     the TSC rate.
//
// Like the hardware registers, a File holds no state of its own: each
// read converts a counter the models keep (the meter's energy, each
// cpu.Core's residency, the GPMU's package residency), so a File can be
// opened at any time and sees every count since the system was built.
//
// The package exists so that measurement code in this repository can be
// written exactly like its real-world counterpart (sample counters,
// subtract, handle wrap), validating that the simulator's observables
// line up with the paper's methodology end to end.
package msr

import (
	"fmt"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/soc"
)

// Register addresses (Intel SDM vol. 4, SKX).
const (
	MSRRaplPowerUnit    = 0x606
	MSRPkgEnergyStatus  = 0x611
	MSRDramEnergyStatus = 0x619
	MSRCoreC1Residency  = 0x660 // per-core, counts at TSC rate
	MSRCoreC6Residency  = 0x3FD
	MSRPkgC2Residency   = 0x60D
	MSRPkgC6Residency   = 0x3F9
)

// EnergyUnitJoules is the default RAPL energy unit: 1/2^16 J ≈ 15.3 µJ
// (ESU=16 in MSR_RAPL_POWER_UNIT).
const EnergyUnitJoules = 1.0 / 65536

// TSCHz is the timestamp-counter frequency used by residency counters.
const TSCHz = 2.2e9

// File is a read-only MSR file for one simulated system.
type File struct {
	sys *soc.System
}

// New attaches an MSR file to a system.
func New(sys *soc.System) *File { return &File{sys: sys} }

// Read returns the register value, or an error for unknown addresses.
// Core-scoped registers take the core index; package-scoped registers
// ignore it.
func (f *File) Read(addr uint32, core int) (uint64, error) {
	switch addr {
	case MSRRaplPowerUnit:
		// Power unit 1/8 W (PU=3), energy unit 2^-16 J (ESU=16), time
		// unit 976 µs (TU=10) — the SKX layout.
		return 3 | 16<<8 | 10<<16, nil
	case MSRPkgEnergyStatus:
		return f.energyCounter(power.Package), nil
	case MSRDramEnergyStatus:
		return f.energyCounter(power.DRAM), nil
	case MSRCoreC1Residency:
		return f.coreResidency(core, cpu.CC1)
	case MSRCoreC6Residency:
		return f.coreResidency(core, cpu.CC6)
	case MSRPkgC2Residency:
		return f.pkgResidency(pmu.PC2), nil
	case MSRPkgC6Residency:
		return f.pkgResidency(pmu.PC6), nil
	default:
		return 0, fmt.Errorf("msr: unimplemented register %#x", addr)
	}
}

// energyCounter converts cumulative joules into the wrapped 32-bit
// 15.3 µJ counter.
func (f *File) energyCounter(d power.Domain) uint64 {
	units := f.sys.Meter.Energy(d) / EnergyUnitJoules
	return uint64(units) & 0xFFFFFFFF
}

func (f *File) coreResidency(core int, s cpu.CState) (uint64, error) {
	if core < 0 || core >= len(f.sys.Cores) {
		return 0, fmt.Errorf("msr: core %d out of range", core)
	}
	return uint64(f.sys.Cores[core].Residency(s).Seconds() * TSCHz), nil
}

func (f *File) pkgResidency(s pmu.PkgState) uint64 {
	ticks := f.sys.GPMU.Residency(s).Seconds() * TSCHz
	return uint64(ticks)
}

// EnergyDelta computes joules between two wrapped energy-counter
// samples, handling a single wraparound — the idiom every RAPL consumer
// implements.
func EnergyDelta(before, after uint64) float64 {
	before &= 0xFFFFFFFF
	after &= 0xFFFFFFFF
	var units uint64
	if after >= before {
		units = after - before
	} else {
		units = (1<<32 - before) + after
	}
	return float64(units) * EnergyUnitJoules
}
