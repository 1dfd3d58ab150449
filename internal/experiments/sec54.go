package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"agilepkgc/internal/clock"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

// Sec54Result reproduces the paper's Sec. 5.4 power-decomposition
// methodology: the four measured deltas between PC1A and PC6, and the
// PC1A power they predict via Eq. 2 / Eq. 3.
type Sec54Result struct {
	PcoresDiff float64 // paper: ≈12.1 W
	PIOsDiff   float64 // paper: ≈3.5 W
	PdramDiff  float64 // paper: ≈1.1 W
	PPLLsDiff  float64 // paper: ≈0.056 W

	PsocPC6  float64 // paper: 11.9 W
	PdramPC6 float64 // paper: 0.51 W

	// Derived via Eq. 2/3.
	PsocPC1A  float64 // paper: ≈27.5 W
	PdramPC1A float64 // paper: ≈1.6 W
}

// Paper values.
const (
	PaperPcoresDiff = 12.1
	PaperPIOsDiff   = 3.5
	PaperPdramDiff  = 1.1
	PaperPPLLsDiff  = 0.056
	PaperPsocPC6    = 11.9
	PaperPdramPC6   = 0.51
)

func init() {
	Define(30, "sec54", "component power deltas Pcores/PIOs/Pdram/PPLLs (paper Sec. 5.4)",
		func(o Options) (Result, error) { return Sec54(o), nil })
}

// Sec54 runs the paper's paired measurement configurations.
func Sec54(opt Options) *Sec54Result {
	r := &Sec54Result{}
	settle := 5 * sim.Millisecond

	// Pcores_diff: all cores in CC1 vs all cores in CC6, with uncore
	// power savings disabled (package C-state limit PC2). RAPL.Package
	// difference.
	{
		cc1 := soc.New(soc.DefaultConfig(soc.Cshallow))
		cc1.Engine.Run(settle)
		p1 := cc1.SoCPower()

		cfg := soc.DefaultConfig(soc.Cdeep)
		cfg.DisablePkgCStates = true
		cc6 := soc.New(cfg)
		cc6.ForceAllCC6()
		p6 := cc6.SoCPower()
		r.PcoresDiff = p1 - p6
	}

	// PIOs_diff and Pdram_diff: config 1 = PCIe/DMI in L0s, UPI in L0p,
	// MCs in CKE-off; config 2 = links in L1, DRAM in self-refresh.
	// Measured per the paper as Package / DRAM counter differences with
	// the cores held constant (we read the IO and DRAM channels, which
	// is the same subtraction with zero noise).
	{
		ioPower := func(s *soc.System) (pkg, dramW float64) {
			for _, l := range s.Links {
				pkg += s.Meter.Lookup(l.Name()).Watts()
			}
			for i := range s.MCs {
				pkg += s.Meter.Lookup("mc" + strconv.Itoa(i)).Watts()
				dramW += s.Meter.Lookup("dimm" + strconv.Itoa(i)).Watts()
			}
			return
		}
		// Config 1: shallow IO states.
		s1 := soc.New(soc.DefaultConfig(soc.Cshallow))
		for _, l := range s1.Links {
			l.AllowL0s().Set()
		}
		for _, mc := range s1.MCs {
			mc.AllowCKEOff().Set()
		}
		s1.Engine.Run(settle)
		pkg1, dram1 := ioPower(s1)

		// Config 2: deep IO states.
		s2 := soc.New(soc.DefaultConfig(soc.Cshallow))
		for _, l := range s2.Links {
			l.EnterL1(nil)
		}
		for _, mc := range s2.MCs {
			mc.EnterSelfRefresh(nil)
		}
		s2.Engine.Run(settle)
		pkg2, dram2 := ioPower(s2)

		r.PIOsDiff = pkg1 - pkg2
		r.PdramDiff = dram1 - dram2
	}

	// PPLLs_diff: 8 non-core PLLs × per-ADPLL power, all on in PC1A and
	// off in PC6.
	{
		s := soc.New(soc.DefaultConfig(soc.CPC1A))
		r.PPLLsDiff = float64(len(s.PLLs)) * clock.ADPLLPowerWatts
	}

	// PC6 baseline powers.
	{
		s := soc.New(soc.DefaultConfig(soc.Cdeep))
		s.ForceAllCC6()
		r.PsocPC6 = s.Meter.Power(power.Package)
		r.PdramPC6 = s.Meter.Power(power.DRAM)
	}

	// Eq. 2 and Eq. 3.
	r.PsocPC1A = r.PsocPC6 + r.PcoresDiff + r.PIOsDiff + r.PPLLsDiff
	r.PdramPC1A = r.PdramPC6 + r.PdramDiff
	return r
}

// Report renders the decomposition against the paper. It implements Result.
func (r *Sec54Result) Report() string {
	var b strings.Builder
	b.WriteString("Sec 5.4: PC1A power decomposition (Eq. 2 / Eq. 3)\n")
	t := &table{header: []string{"Component", "Measured", "Paper"}}
	t.add("Pcores_diff (CC1 vs CC6)", fmt.Sprintf("%.2f W", r.PcoresDiff), "12.1 W")
	t.add("PIOs_diff (L0s/CKE vs L1/SR)", fmt.Sprintf("%.2f W", r.PIOsDiff), "3.5 W")
	t.add("Pdram_diff (CKE vs SR)", fmt.Sprintf("%.2f W", r.PdramDiff), "1.1 W")
	t.add("PPLLs_diff (8 ADPLLs)", fmt.Sprintf("%.3f W", r.PPLLsDiff), "0.056 W")
	t.add("Psoc_PC6", fmt.Sprintf("%.2f W", r.PsocPC6), "11.9 W")
	t.add("Pdram_PC6", fmt.Sprintf("%.2f W", r.PdramPC6), "0.51 W")
	t.add("Psoc_PC1A (Eq. 2)", fmt.Sprintf("%.2f W", r.PsocPC1A), "27.5 W")
	t.add("Pdram_PC1A (Eq. 3)", fmt.Sprintf("%.2f W", r.PdramPC1A), "1.6 W")
	b.WriteString(t.String())
	return b.String()
}
