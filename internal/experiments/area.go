package experiments

import (
	"fmt"
	"strings"
)

// AreaModel reproduces the paper's Sec. 5.1–5.3 hardware-cost analysis:
// the die-area overhead of the APC signals and logic, expressed as
// fractions of the SKX die. The model parameterizes the same quantities
// the paper uses so the arithmetic is reproducible, not transcribed.
type AreaModel struct {
	// IOInterconnectWidthBits is the data width of the IO interconnect
	// the new long-distance signals ride along (128–512 in the paper).
	IOInterconnectWidthBits int
	// IOInterconnectDieFrac is the IO interconnect's share of the die
	// (paper: <6% of SKX).
	IOInterconnectDieFrac float64
	// IOControllerDieFrac is the IO controllers' share (paper: <15%).
	IOControllerDieFrac float64
	// ControllerModFrac is the per-controller modification cost
	// (paper: <0.5% of each controller, based on [31]).
	ControllerModFrac float64
	// GPMUDieFrac is the GPMU's share of the die (paper: <2%).
	GPMUDieFrac float64
	// APMUOfGPMUFrac is the APMU's size relative to the GPMU
	// (paper: ≤5%).
	APMUOfGPMUFrac float64
}

// DefaultAreaModel returns the paper's parameters (with the pessimistic
// 128-bit interconnect).
func DefaultAreaModel() AreaModel {
	return AreaModel{
		IOInterconnectWidthBits: 128,
		IOInterconnectDieFrac:   0.06,
		IOControllerDieFrac:     0.15,
		ControllerModFrac:       0.005,
		GPMUDieFrac:             0.02,
		APMUOfGPMUFrac:          0.05,
	}
}

// AreaResult is the computed overhead budget.
type AreaResult struct {
	Model AreaModel

	// Die-area fractions.
	IOSMSignals     float64 // 5 long-distance signals (AllowL0s, InL0s, Allow_CKE_OFF)
	IOSMControllers float64 // controller modifications
	CLMRSignals     float64 // 3 long-distance signals (Ret ×2 + ClkGate... per paper: 3)
	APMULogic       float64 // FSM inside/near the GPMU
	InCC1Routing    float64 // 3 long-distance InCC1 aggregation signals
	Total           float64
}

func init() {
	Define(110, "area", "die-area overhead of the APC hardware (paper Sec. 5.1-5.3)",
		func(Options) (Result, error) { return Area(DefaultAreaModel()), nil })
}

// Area computes the budget.
func Area(m AreaModel) *AreaResult {
	r := new(AreaResult)
	AreaInto(r, m)
	return r
}

// AreaInto computes the budget into a caller-owned result, so repeated
// evaluations (sensitivity sweeps, benchmarks) allocate nothing.
func AreaInto(r *AreaResult, m AreaModel) {
	*r = AreaResult{Model: m}
	perSignal := m.IOInterconnectDieFrac / float64(m.IOInterconnectWidthBits)
	// Sec. 5.1: IOSM adds five long-distance signals.
	r.IOSMSignals = 5 * perSignal
	// Controller modifications: <0.5% of the IO controllers' area.
	r.IOSMControllers = m.ControllerModFrac * m.IOControllerDieFrac
	// Sec. 5.2: CLMR adds three long-distance signals (Ret, PwrOk,
	// ClkGate); FCM RVID registers are negligible.
	r.CLMRSignals = 3 * perSignal
	// Sec. 5.3: APMU FSM is ≤5% of the GPMU, which is <2% of the die;
	// plus three long-distance InCC1 aggregation signals.
	r.APMULogic = m.APMUOfGPMUFrac * m.GPMUDieFrac
	r.InCC1Routing = 3 * perSignal
	r.Total = r.IOSMSignals + r.IOSMControllers + r.CLMRSignals + r.APMULogic + r.InCC1Routing
}

// Report renders the budget against the paper. It implements Result.
func (r *AreaResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec 5.1-5.3: APC area overhead (%d-bit IO interconnect)\n",
		r.Model.IOInterconnectWidthBits)
	fine := func(f float64) string { return fmt.Sprintf("%.3f%%", f*100) }
	t := &table{header: []string{"Component", "Die area", "Paper bound"}}
	t.add("IOSM long-distance signals (5)", fine(r.IOSMSignals), "<0.24%")
	t.add("IOSM controller mods", fine(r.IOSMControllers), "<0.08%")
	t.add("CLMR signals (3)", fine(r.CLMRSignals), "<0.14%")
	t.add("APMU logic", fine(r.APMULogic), "<0.10%")
	t.add("InCC1 routing (3)", fine(r.InCC1Routing), "<0.14%")
	t.add("Total", fine(r.Total), "<0.75%")
	b.WriteString(t.String())
	return b.String()
}
