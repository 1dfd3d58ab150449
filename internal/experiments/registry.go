package experiments

import (
	"fmt"
	"sort"
)

// This file is the experiment registry. Every paper artifact registers
// itself from an init next to the code or data that computes it — its
// own file here, or package scenario for the builtin scenario files —
// under an ordinal that fixes the canonical report order — the order
// `apcsim run all` prints and DESIGN.md §3 lists. The CLI, the
// golden-report test and the docs keep no name list: they all
// enumerate All().

// Experiment is one regenerable artifact of the evaluation: a table,
// figure or study that runs the simulator under Options and renders a
// report. Implementations are registered once at init time.
type Experiment interface {
	// Name is the stable CLI identifier ("table1", "fig7", ...).
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Run executes the experiment. Results are a pure function of
	// Options — same Options, same Result, at any parallelism.
	Run(Options) (Result, error)
}

// Result is what an experiment run produces. Report renders the text
// artifact shown side by side with the paper's published numbers. Every
// Result must also marshal cleanly with encoding/json — the CLI's -json
// output and TestRegistryResultsMarshalJSON depend on it — and may
// additionally implement CSVWriter to export its data series.
type Result interface {
	Report() string
}

// funcExperiment backs Define: the common case of an experiment that is
// a single pure function.
type funcExperiment struct {
	name string
	desc string
	run  func(Options) (Result, error)
}

func (e funcExperiment) Name() string                  { return e.name }
func (e funcExperiment) Describe() string              { return e.desc }
func (e funcExperiment) Run(o Options) (Result, error) { return e.run(o) }

type regEntry struct {
	ord int
	exp Experiment
}

var registry = struct {
	entries []regEntry
	byName  map[string]Experiment
}{byName: map[string]Experiment{}}

// Register adds an experiment under the given ordinal. Ordinals are
// declared next to each experiment and only define the canonical
// ordering; gaps are fine. Duplicate names or ordinals panic at init.
func Register(ord int, e Experiment) {
	name := e.Name()
	if name == "" {
		panic("experiments: Register with empty name")
	}
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment %q", name))
	}
	for _, en := range registry.entries {
		if en.ord == ord {
			panic(fmt.Sprintf("experiments: ordinal %d reused by %q and %q",
				ord, en.exp.Name(), name))
		}
	}
	registry.byName[name] = e
	registry.entries = append(registry.entries, regEntry{ord: ord, exp: e})
	sort.SliceStable(registry.entries, func(i, j int) bool {
		return registry.entries[i].ord < registry.entries[j].ord
	})
}

// Define registers a function-backed experiment (the common case).
func Define(ord int, name, desc string, run func(Options) (Result, error)) {
	Register(ord, funcExperiment{name: name, desc: desc, run: run})
}

// All returns every registered experiment in canonical order.
func All() []Experiment {
	out := make([]Experiment, len(registry.entries))
	for i, en := range registry.entries {
		out[i] = en.exp
	}
	return out
}

// Names returns the experiment names in canonical order.
func Names() []string {
	out := make([]string, len(registry.entries))
	for i, en := range registry.entries {
		out[i] = en.exp.Name()
	}
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry.byName[name]
	return e, ok
}
