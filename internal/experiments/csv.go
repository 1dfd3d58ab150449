package experiments

import (
	"fmt"
	"io"
)

// CSVWriter is implemented by results that can export their data series
// for external plotting. The CLI writes one file per experiment when
// -csv is given.
type CSVWriter interface {
	WriteCSV(w io.Writer) error
}

// WriteCSVTable writes one CSV table: the header line, then one line
// per row, each line in exactly one Write so a failing writer surfaces
// at every line. A cell prints in fmt's default format — %g for floats,
// %d for integers, %t for booleans — and a nil cell is empty (see Opt).
// Callers convert values whose String method would print instead, such
// as sim.Duration. Every experiment and scenario CSV goes through here.
func WriteCSVTable(w io.Writer, header string, rows [][]any) error {
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	var line []byte
	for _, row := range rows {
		line = line[:0]
		for i, c := range row {
			if i > 0 {
				line = append(line, ',')
			}
			if c != nil {
				line = fmt.Append(line, c)
			}
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Opt is the cell of an optional value: nil, so an empty cell, for a
// nil pointer (a PC1A statistic on a configuration without an APMU),
// the value otherwise.
func Opt[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}

// WriteCSV exports Fig. 5's latency series.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	var rows [][]any
	for _, p := range r.Points {
		rows = append(rows, []any{p.QPS, p.ShallowMean, p.ShallowP99, p.DeepMean, p.DeepP99})
	}
	return WriteCSVTable(w, "qps,shallow_mean_s,shallow_p99_s,deep_mean_s,deep_p99_s", rows)
}

// WriteCSV exports Fig. 6's residency/opportunity series.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	var rows [][]any
	for _, p := range r.Points {
		rows = append(rows, []any{p.QPS, p.CC0Residency, p.CC1Residency, p.AllIdleTrue, p.AllIdleCensored,
			p.IdlePeriods, p.FracIn20To200us, p.IdleP50, p.IdleP90})
	}
	return WriteCSVTable(w, "qps,cc0,cc1,all_idle_true,all_idle_censored,idle_periods,frac_20_200us,idle_p50_s,idle_p90_s", rows)
}

// WriteCSV exports Fig. 7's power/latency series (idle point as qps=0).
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	rows := [][]any{{0, r.Idle.Cshallow, r.Idle.CPC1A, r.Idle.SavingsVsShallow, 0, 0, 0, 0, 1}}
	for _, p := range r.Points {
		rows = append(rows, []any{p.QPS, p.ShallowWatts, p.PC1AWatts, p.SavingsFrac,
			p.ShallowMean, p.PC1AMean, p.ImpactFrac, p.PC1AEntries, p.PC1AResidency})
	}
	return WriteCSVTable(w, "qps,shallow_w,pc1a_w,savings,shallow_mean_s,pc1a_mean_s,impact,pc1a_entries,pc1a_residency", rows)
}

// WriteCSV exports the Fig. 8/9 workload points.
func (r *WorkloadResult) WriteCSV(w io.Writer) error {
	var rows [][]any
	for _, p := range r.Points {
		rows = append(rows, []any{r.Service, p.Label, p.Load, p.QPS, p.CC0Residency, p.CC1Residency,
			p.AllIdleTrue, p.AllIdleCensored, p.ShallowWatts, p.PC1AWatts, p.PowerReduction, p.ImpactFrac})
	}
	return WriteCSVTable(w, "service,label,load,qps,cc0,cc1,all_idle,all_idle_censored,shallow_w,pc1a_w,reduction,impact", rows)
}

// WriteCSV exports the batching sweep.
func (r *BatchingResult) WriteCSV(w io.Writer) error {
	var rows [][]any
	for _, p := range r.Points {
		rows = append(rows, []any{int64(p.Epoch), p.Watts, p.SavingsFrac, p.PC1AResidency,
			p.MeanLatency, p.P99Latency, p.LatencyCost})
	}
	return WriteCSVTable(w, "epoch_ns,watts,savings,pc1a_residency,mean_s,p99_s,latency_cost", rows)
}

// WriteCSV exports the remote-traffic sweep.
func (r *RemoteResult) WriteCSV(w io.Writer) error {
	var rows [][]any
	for _, p := range r.Points {
		rows = append(rows, []any{p.SnoopRate, p.PC1AResidency, p.PC1AEntries, p.Watts, p.SavingsFrac})
	}
	return WriteCSVTable(w, "snoop_rate,pc1a_residency,pc1a_entries,watts,savings", rows)
}
