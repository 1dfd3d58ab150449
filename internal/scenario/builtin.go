package scenario

import (
	"embed"
	"fmt"
	"io"
	"strings"

	"agilepkgc/internal/experiments"
)

// The fleet extension experiments are data: each one is a file of
// scenarios under builtin/, embedded in the binary and registered in
// the experiment registry under its name and ordinal. A sweep over two
// dimensions is one scenario per value of the unswept one (one servers
// sweep per policy, say). No builtin file sets duration_ms or seed, so
// the caller's Options govern them like every other experiment.
// trace-replay stays Go code in package experiments: it records its
// trace in memory from the run's own window and seed, which no fixed
// file can follow.

//go:embed builtin/*.json
var builtinFiles embed.FS

// builtins lists the registered files: builtin/<name>.json runs as the
// experiment <name>.
var builtins = []struct {
	ord        int
	name, desc string
}{
	{150, "cluster-scaling", "fleet latency/energy vs size at fixed aggregate QPS (spread vs pack)"},
	{160, "cluster-policy", "round_robin vs least_loaded vs power_aware on a bursty fleet"},
	{170, "rack-packing", "rack_affinity vs power_aware across rack shapes at fixed aggregate QPS"},
	{180, "drain-hysteresis", "hysteretic drain hold sweep: power_aware vs rack_power_aware on a bursty racked fleet"},
	{190, "fault-resilience", "crash MTBF sweep under retries+hedging: round_robin vs power_aware vs rack_power_aware"},
	{210, "tiered-cache", "backend PC1A residency vs cache hit ratio through a two-tier service graph"},
}

func init() {
	for _, b := range builtins {
		file := "builtin/" + b.name + ".json"
		experiments.Define(b.ord, b.name, b.desc, func(opt experiments.Options) (experiments.Result, error) {
			return runBuiltin(file, opt)
		})
	}
}

// loadBuiltin parses and validates one embedded file.
func loadBuiltin(file string) ([]Scenario, error) {
	data, err := builtinFiles.ReadFile(file)
	if err != nil {
		return nil, err
	}
	scs, err := load(data, "")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return scs, nil
}

// runBuiltin runs every scenario of one embedded file in order.
func runBuiltin(file string, opt experiments.Options) (experiments.Result, error) {
	scs, err := loadBuiltin(file)
	if err != nil {
		return nil, err
	}
	rs := &Results{Scenarios: make([]*Result, len(scs))}
	for i, sc := range scs {
		if rs.Scenarios[i], err = sc.Run(opt); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// Results is a file of scenarios run one after another. It implements
// experiments.Result and experiments.CSVWriter.
type Results struct {
	Scenarios []*Result `json:"scenarios"`
}

// Report implements experiments.Result: the scenarios' reports, one
// after another.
func (rs *Results) Report() string {
	reports := make([]string, len(rs.Scenarios))
	for i, r := range rs.Scenarios {
		reports[i] = r.Report()
	}
	return strings.Join(reports, "\n")
}

// WriteCSV implements experiments.CSVWriter: the scenarios' tables, one
// after another, each separated from the previous by a blank line.
func (rs *Results) WriteCSV(w io.Writer) error {
	for i, r := range rs.Scenarios {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := r.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
