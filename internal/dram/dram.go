// Package dram models the memory subsystem: memory controllers (MCs) and
// the DDR4 devices behind them, with the three power regimes the paper
// uses (Sec. 3.1, 4.2.2):
//
//   - Active: MC issues refreshes, CKE high, full power.
//   - CKE-off power-down (APD/PPD): nanosecond-scale entry (~10 ns) and
//     exit (~24 ns), ≥50% DRAM power saving. This is what PC1A uses via
//     the Allow_CKE_OFF control wire.
//   - Self-refresh: DRAM refreshes itself, most of the SoC↔DRAM interface
//     can be powered off; microsecond-scale exit. Only reachable from
//     deep package C-states (PC6).
//
// Power is split across two accounting domains the way RAPL splits it:
// the controller+PHY draw belongs to the Package domain, the DRAM device
// draw to the DRAM domain.
package dram

import (
	"fmt"

	"agilepkgc/internal/power"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
)

// Mode is the DRAM power regime of one memory controller's channels.
type Mode int

const (
	// Active: CKE high, pages servable.
	Active Mode = iota
	// PowerDown: CKE off (pre-charged power-down). PC1A's choice.
	PowerDown
	// SelfRefresh: device self-refreshes, interface off. PC6's choice.
	SelfRefresh
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Active:
		return "active"
	case PowerDown:
		return "CKE-off"
	case SelfRefresh:
		return "self-refresh"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CKEKind distinguishes the two DDR4 CKE power-down flavours. The model
// treats them identically for latency (both are 10–30 ns class); PPD
// saves slightly more power because the row buffer is off.
type CKEKind int

const (
	// APD: active power-down, pages kept open.
	APD CKEKind = iota
	// PPD: pre-charged power-down, row buffer off.
	PPD
)

// String names the kind.
func (k CKEKind) String() string {
	if k == APD {
		return "APD"
	}
	return "PPD"
}

// Params collects a memory controller's timing and power parameters.
type Params struct {
	// CKEEntry/CKEExit are the CKE-off transition latencies (paper:
	// entry within 10 ns, exit within 24 ns).
	CKEEntry sim.Duration
	CKEExit  sim.Duration
	// SREntry/SRExit are the self-refresh transition latencies
	// (microsecond scale).
	SREntry sim.Duration
	SRExit  sim.Duration

	// Controller power (Package domain) per mode.
	MCActiveWatts float64
	MCCKEWatts    float64
	MCSRWatts     float64

	// Device power (DRAM domain) per mode, for this controller's DIMMs.
	DRAMActiveWatts float64
	DRAMCKEWatts    float64
	DRAMSRWatts     float64

	// AccessEnergyJoules is the dynamic energy charged to the DRAM
	// domain per memory transaction, on top of the background power.
	AccessEnergyJoules float64

	// AccessLatency is the service time of one memory transaction once
	// the channel is active.
	AccessLatency sim.Duration
}

// DefaultParams returns the paper-calibrated parameters for one of the
// two SKX memory controllers (totals across both: DRAM 5.5 W active idle,
// 1.61 W CKE-off, 0.51 W self-refresh; MC active 1.0 W total — see
// DESIGN.md for the derivation from the paper's Sec. 5.4 deltas).
func DefaultParams() Params {
	return Params{
		CKEEntry:           10 * sim.Nanosecond,
		CKEExit:            24 * sim.Nanosecond,
		SREntry:            1 * sim.Microsecond,
		SRExit:             5 * sim.Microsecond,
		MCActiveWatts:      0.50,
		MCCKEWatts:         0.35,
		MCSRWatts:          0.175,
		DRAMActiveWatts:    2.75,
		DRAMCKEWatts:       0.805,
		DRAMSRWatts:        0.255,
		AccessEnergyJoules: 3.3e-6,
		AccessLatency:      90 * sim.Nanosecond,
	}
}

// MC is one memory controller plus its attached DIMMs.
type MC struct {
	eng    *sim.Engine
	name   sim.Name
	params Params
	kind   CKEKind

	mode        Mode
	outstanding int

	// allowCKEOff mirrors the Allow_CKE_OFF control wire (paper Fig. 3,
	// purple): "when this signal is set, the memory controller enters
	// CKE off mode as soon as it completes all outstanding memory
	// transactions and returns to the active state when unset."
	allowCKEOff signal.Signal

	// inCKEOff is a status wire: high while the channels are in CKE-off
	// or deeper. (The paper does not route this to the APMU — CKE entry
	// is non-blocking — but experiments use it for residency tracking.)
	inCKEOff signal.Signal

	pending sim.Event

	mcCh   *power.Channel // Package domain
	dramCh *power.Channel // DRAM domain

	// batchQ holds the per-batch transaction counts of pending AccessN
	// batches in FIFO order. Batch completions are scheduled with a
	// fixed relative latency, so they fire in schedule order and a plain
	// queue pairs each batchTimer event with its count.
	batchQ    []int
	batchHead int

	// srDone is the done of the self-refresh entry in flight: pending
	// holds at most one event, so at most one entry is in flight.
	srDone func()

	// onAllow is onAllowCKEOff bound to the controller, once:
	// Allow_CKE_OFF's subscriber.
	onAllow func(bool)

	ckeEntries uint64
	srEntries  uint64
	accesses   uint64
}

// A controller's events are the controller itself seen as one
// sim.Handler per timer, so scheduling one allocates nothing. The CKE
// entry, the exit to Active and the self-refresh entry share the pending
// slot; access and batch completions can be pending alongside them.
type (
	ckeEntryTimer MC
	exitTimer     MC
	srEntryTimer  MC
	completeTimer MC
	batchTimer    MC
)

// Fire ends the CKE-off entry window.
//
//apcvet:noalloc
func (t *ckeEntryTimer) Fire() {
	mc := (*MC)(t)
	mc.pending = sim.Event{}
	// Conditions may have changed during the 10 ns entry.
	if mc.mode != Active || !mc.allowCKEOff.Level() || !mc.Idle() {
		return
	}
	mc.mode = PowerDown
	mc.ckeEntries++
	mc.setPower()
	mc.inCKEOff.Set()
}

// Fire ends the exit to Active.
//
//apcvet:noalloc
func (t *exitTimer) Fire() {
	mc := (*MC)(t)
	mc.pending = sim.Event{}
	mc.drainOrIdle()
}

// Fire ends the self-refresh entry window.
//
//apcvet:noalloc
func (t *srEntryTimer) Fire() { (*MC)(t).srEntered() }

// Fire completes one transaction with no callback.
//
//apcvet:noalloc
func (t *completeTimer) Fire() { (*MC)(t).complete(nil) }

// Fire completes the oldest pending AccessN batch.
//
//apcvet:noalloc
func (t *batchTimer) Fire() {
	mc := (*MC)(t)
	k := mc.batchQ[mc.batchHead]
	mc.batchHead++
	if mc.batchHead == len(mc.batchQ) {
		mc.batchQ = mc.batchQ[:0]
		mc.batchHead = 0
	}
	mc.CompleteN(k)
}

// Init builds the controller in place, active, and returns mc.
// Channels may be nil in tests. Building in place lets a machine
// allocate its controllers as one slab, and rebuilding one allocates
// nothing: the controller keeps its wires' and batch queue's storage
// and its bound subscriber.
func (mc *MC) Init(eng *sim.Engine, name sim.Name, p Params, kind CKEKind, mcCh, dramCh *power.Channel) *MC {
	*mc = MC{
		eng:         eng,
		name:        name,
		params:      p,
		kind:        kind,
		mode:        Active,
		mcCh:        mcCh,
		dramCh:      dramCh,
		allowCKEOff: mc.allowCKEOff,
		inCKEOff:    mc.inCKEOff,
		batchQ:      mc.batchQ[:0],
		onAllow:     mc.onAllow,
	}
	if mc.onAllow == nil {
		mc.onAllow = mc.onAllowCKEOff
	}
	mc.allowCKEOff.Init(name.With(".Allow_CKE_OFF"), false)
	mc.inCKEOff.Init(name.With(".InCKEOff"), false)
	if mcCh != nil {
		mcCh.Set(p.MCActiveWatts)
	}
	if dramCh != nil {
		dramCh.Set(p.DRAMActiveWatts)
	}
	mc.allowCKEOff.Subscribe(mc.onAllow)
	return mc
}

// Name returns the controller name.
func (mc *MC) Name() string { return mc.name.String() }

// Mode returns the current power regime.
//
//apcvet:noalloc
func (mc *MC) Mode() Mode { return mc.mode }

// Params returns the controller's configuration.
//
//apcvet:noalloc
func (mc *MC) Params() Params { return mc.params }

// CKEKind returns the configured power-down flavour.
func (mc *MC) CKEKind() CKEKind { return mc.kind }

// AllowCKEOff returns the Allow_CKE_OFF control wire.
//
//apcvet:noalloc
func (mc *MC) AllowCKEOff() *signal.Signal { return &mc.allowCKEOff }

// InCKEOff returns the CKE-off status wire.
func (mc *MC) InCKEOff() *signal.Signal { return &mc.inCKEOff }

// Idle reports whether no transactions are outstanding.
//
//apcvet:noalloc
func (mc *MC) Idle() bool { return mc.outstanding == 0 }

// Outstanding returns how many transactions are in flight.
func (mc *MC) Outstanding() int { return mc.outstanding }

// CKEEntries returns how many times the channels entered CKE-off.
func (mc *MC) CKEEntries() uint64 { return mc.ckeEntries }

// SREntries returns how many times the channels entered self-refresh.
func (mc *MC) SREntries() uint64 { return mc.srEntries }

// Accesses returns the number of completed memory transactions.
func (mc *MC) Accesses() uint64 { return mc.accesses }

//apcvet:noalloc
func (mc *MC) setPower() {
	var mcw, dw float64
	switch mc.mode {
	case Active:
		mcw, dw = mc.params.MCActiveWatts, mc.params.DRAMActiveWatts
	case PowerDown:
		mcw, dw = mc.params.MCCKEWatts, mc.params.DRAMCKEWatts
	case SelfRefresh:
		mcw, dw = mc.params.MCSRWatts, mc.params.DRAMSRWatts
	}
	if mc.mcCh != nil {
		mc.mcCh.Set(mcw)
	}
	if mc.dramCh != nil {
		mc.dramCh.Set(dw)
	}
}

func (mc *MC) onAllowCKEOff(level bool) {
	if level {
		mc.maybeEnterCKEOff()
		return
	}
	if mc.mode == PowerDown {
		mc.exitToActive(mc.params.CKEExit)
	}
}

//apcvet:noalloc
func (mc *MC) maybeEnterCKEOff() {
	if mc.mode != Active || !mc.allowCKEOff.Level() || !mc.Idle() || mc.pending.Pending() {
		return
	}
	mc.pending = mc.eng.Schedule(mc.params.CKEEntry, (*ckeEntryTimer)(mc))
}

// exitToActive returns to Active after the given latency.
//
//apcvet:noalloc
func (mc *MC) exitToActive(lat sim.Duration) {
	mc.pending.Cancel()
	mc.mode = Active
	mc.inCKEOff.Unset()
	mc.setPower()
	mc.pending = mc.eng.Schedule(lat, (*exitTimer)(mc))
}

//apcvet:noalloc
func (mc *MC) drainOrIdle() {
	if mc.Idle() {
		mc.maybeEnterCKEOff()
	}
}

// Access performs one memory transaction: wakes the channels if needed,
// charges the dynamic energy, and calls done (if non-nil) when the
// transaction completes. It returns the total latency including any
// power-state exit penalty.
func (mc *MC) Access(done func()) sim.Duration {
	mc.outstanding++
	var penalty sim.Duration
	switch mc.mode {
	case PowerDown:
		penalty = mc.params.CKEExit
		mc.exitToActive(mc.params.CKEExit)
	case SelfRefresh:
		penalty = mc.params.SRExit
		mc.exitToActive(mc.params.SRExit)
	default:
		// An in-flight CKE entry is aborted by traffic.
		mc.pending.Cancel()
		mc.pending = sim.Event{}
	}
	total := penalty + mc.params.AccessLatency
	if done == nil {
		mc.eng.Schedule(total, (*completeTimer)(mc))
	} else {
		mc.eng.Schedule(total, sim.Func(func() { mc.complete(done) }))
	}
	return total
}

// AccessN performs k transactions issued back to back at the current
// instant with no completion callbacks — the bulk form of Access that
// request execution uses. State evolution is exactly k Access(nil)
// calls: when the channel is in a power-down mode the first transaction
// pays the exit penalty and completes later than the k−1 issued against
// the then-active channel; completions that share a fire time share one
// engine event, which runs their complete sequence back to back — the
// same back-to-back order the per-access events fire in, since their
// sequence numbers are consecutive.
//
//apcvet:noalloc
func (mc *MC) AccessN(k int) {
	if k <= 0 {
		return
	}
	mc.outstanding += k
	switch mc.mode {
	case PowerDown:
		mc.exitToActive(mc.params.CKEExit)
		mc.eng.Schedule(mc.params.CKEExit+mc.params.AccessLatency, (*completeTimer)(mc))
		k--
	case SelfRefresh:
		mc.exitToActive(mc.params.SRExit)
		mc.eng.Schedule(mc.params.SRExit+mc.params.AccessLatency, (*completeTimer)(mc))
		k--
	default:
		// An in-flight CKE entry is aborted by traffic.
		mc.pending.Cancel()
		mc.pending = sim.Event{}
	}
	switch {
	case k == 1:
		mc.eng.Schedule(mc.params.AccessLatency, (*completeTimer)(mc))
	case k > 1:
		mc.batchQ = append(mc.batchQ, k)
		mc.eng.Schedule(mc.params.AccessLatency, (*batchTimer)(mc))
	}
}

// StartN issues k transactions on an Active channel and schedules
// nothing: it is AccessN's Active branch without the completion event,
// for a caller that completes several controllers' batches from one
// event of its own (soc.System.MemAccess). The caller must call
// CompleteN(k) exactly AccessLatency later, at the point in the event
// order where AccessN's completion event would have fired.
//
//apcvet:noalloc
func (mc *MC) StartN(k int) {
	if mc.mode != Active {
		panic(fmt.Sprintf("dram: StartN on %s in %v", mc.name, mc.mode)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	mc.outstanding += k
	// An in-flight CKE entry is aborted by traffic.
	mc.pending.Cancel()
	mc.pending = sim.Event{}
}

// CompleteN finishes k transactions back to back — the body of one
// batch completion event.
//
//apcvet:noalloc
func (mc *MC) CompleteN(k int) {
	for ; k > 0; k-- {
		mc.complete(nil)
	}
}

// complete finishes one transaction: counters, dynamic energy, the
// caller's callback, and opportunistic CKE re-entry.
//
//apcvet:noalloc
func (mc *MC) complete(done func()) {
	mc.outstanding--
	mc.accesses++
	if mc.dramCh != nil {
		mc.chargeAccessEnergy()
	}
	if done != nil {
		done()
	}
	if mc.Idle() {
		mc.maybeEnterCKEOff()
	}
}

// chargeAccessEnergy deposits the per-access dynamic energy into the
// DRAM domain as a direct impulse.
//
//apcvet:noalloc
func (mc *MC) chargeAccessEnergy() {
	if e := mc.params.AccessEnergyJoules; e > 0 {
		mc.dramCh.AddEnergy(e)
	}
}

// EnterSelfRefresh places the channels in self-refresh (GPMU command
// during the PC6 entry flow). The controller must be idle. done fires
// when the devices are self-refreshing.
//
//apcvet:noalloc
func (mc *MC) EnterSelfRefresh(done func()) {
	if !mc.Idle() {
		panic(fmt.Sprintf("dram: EnterSelfRefresh on busy controller %s", mc.name)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	if mc.mode == SelfRefresh {
		if done != nil {
			done()
		}
		return
	}
	mc.pending.Cancel()
	mc.srDone = done
	mc.pending = mc.eng.Schedule(mc.params.SREntry, (*srEntryTimer)(mc))
}

// srEntered ends the self-refresh entry window.
//
//apcvet:noalloc
func (mc *MC) srEntered() {
	done := mc.srDone
	mc.srDone = nil
	mc.pending = sim.Event{}
	// A transaction racing the entry window aborts it (the event is also
	// canceled directly by Access); the GPMU retries on its next pass.
	if !mc.Idle() || mc.mode != Active {
		if done != nil {
			done()
		}
		return
	}
	mc.mode = SelfRefresh
	mc.srEntries++
	mc.setPower()
	mc.inCKEOff.Set() // self-refresh is CKE-off or deeper
	if done != nil {
		done()
	}
}

// ExitSelfRefresh wakes the devices (GPMU command during PC6 exit); done
// fires when the channels are active again.
//
//apcvet:noalloc
func (mc *MC) ExitSelfRefresh(done func()) {
	if mc.mode != SelfRefresh {
		if done != nil {
			done()
		}
		return
	}
	mc.exitToActive(mc.params.SRExit)
	if done != nil {
		mc.eng.Schedule(mc.params.SRExit, sim.Func(done))
	}
}
