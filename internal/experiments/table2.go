package experiments

import (
	"strings"

	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

// Table2Row captures the device configuration observed in one package
// C-state — paper Table 2's columns.
type Table2Row struct {
	State   string
	CoresIn string
	L3Cache string // "Accessible" / "Retention"
	PLLs    string // "On" / "Off"
	PCIeDMI string // L-state
	UPI     string
	DRAM    string // "Available" / "Self Refresh" / "CKE off"
}

// Table2Result holds the observed matrix.
type Table2Result struct {
	Rows []Table2Row
}

func init() {
	Define(20, "table2", "state-availability matrix per package C-state (paper Table 2)",
		func(o Options) (Result, error) { return Table2(o), nil })
}

// Table2 drives each configuration into its package C-state and reads
// the *actual* device states out of the simulator — the matrix is
// observed, not transcribed.
func Table2(opt Options) *Table2Result {
	res := &Table2Result{}

	describe := func(s *soc.System, state, cores string) Table2Row {
		row := Table2Row{State: state, CoresIn: cores}
		if s.CLM.Accessible() {
			row.L3Cache = "Accessible"
		} else if s.CLM.AtRetentionVoltage() {
			row.L3Cache = "Retention"
		} else {
			row.L3Cache = "Gated"
		}
		allOn := true
		for _, p := range s.PLLs {
			if !p.Locked() {
				allOn = false
			}
		}
		if allOn {
			row.PLLs = "On"
		} else {
			row.PLLs = "Off"
		}
		var pcie, upi ios.LState
		for _, l := range s.Links {
			if l.Kind() == ios.UPI {
				upi = l.State()
			} else {
				pcie = l.State()
			}
		}
		row.PCIeDMI = pcie.String()
		if upi == ios.L0s {
			row.UPI = "L0p" // UPI's standby is partial width
		} else {
			row.UPI = upi.String()
		}
		switch s.MCs[0].Mode() {
		case dram.Active:
			row.DRAM = "Available"
		case dram.PowerDown:
			row.DRAM = "CKE off"
		case dram.SelfRefresh:
			row.DRAM = "Self Refresh"
		}
		return row
	}

	// PC0: active Cshallow system.
	{
		s := soc.New(soc.DefaultConfig(soc.Cshallow))
		s.Cores[0].Enqueue(cpuBusyWork())
		s.Engine.Run(sim.Millisecond)
		res.Rows = append(res.Rows, describe(s, "PC0", ">=1 in CC0"))
	}
	// PC6: forced-deep Cdeep system.
	{
		s := soc.New(soc.DefaultConfig(soc.Cdeep))
		s.ForceAllCC6()
		res.Rows = append(res.Rows, describe(s, "PC6", "All in CC6"))
	}
	// PC1A: idle CPC1A system.
	{
		s := soc.New(soc.DefaultConfig(soc.CPC1A))
		s.Engine.Run(sim.Millisecond)
		res.Rows = append(res.Rows, describe(s, "PC1A", "All in CC1"))
	}
	return res
}

// Report renders the observed matrix next to the paper's. It implements Result.
func (r *Table2Result) Report() string {
	t := &table{header: []string{"PCx", "Cores in CCx", "L3 Cache", "PLLs", "PCIe/DMI", "UPI", "DRAM"}}
	for _, row := range r.Rows {
		t.add(row.State, row.CoresIn, row.L3Cache, row.PLLs, row.PCIeDMI, row.UPI, row.DRAM)
	}
	var b strings.Builder
	b.WriteString("Table 2: observed package C-state characteristics\n")
	b.WriteString(t.String())
	b.WriteString("\nPaper: PC0 = Accessible/On/L0/L0/Available;")
	b.WriteString(" PC6 = Retention/Off/L1/L1/Self Refresh;")
	b.WriteString(" PC1A = Retention/On/L0s/L0p/CKE off\n")
	return b.String()
}
