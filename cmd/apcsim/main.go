// Command apcsim regenerates the tables and figures of the AgilePkgC
// paper (MICRO 2022) from the simulator and runs declarative scenario
// files — single machines or load-balanced fleets (a "cluster" block;
// see README.md "Scenario schema reference") — against it.
//
// Usage:
//
//	apcsim [flags] list                     enumerate registered experiments
//	apcsim [flags] run <experiment>...      run experiments (or "all")
//	apcsim [flags] scenario <file.json>...  run declarative scenario files
//	apcsim [flags] <experiment>...          shorthand for "run"
//
// Flags:
//
//	-duration 2s      virtual measurement window per operating point
//	-seed 1           random seed for all generators
//	-parallel N       max sweep points simulated concurrently
//	-csv dir          write per-experiment CSV series into dir
//	-json dir         write machine-readable JSON results into dir
//	-cpuprofile file  write a CPU profile of the run to file
//	-memprofile file  write a heap profile taken after the run to file
//
// The experiment set is self-registering: `apcsim list` is the registry,
// not a hand-maintained table.
//
// stdout carries only the reports, so it is byte-deterministic for a
// given seed and duration at any -parallel setting; the per-run wall
// times and the "[wrote …]" artifact lines go to stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
	"agilepkgc/internal/sim"
)

// errUsage marks a command-line mistake after the usage text has
// already been printed; main exits 2 for it without repeating the
// message, matching the old flag.ExitOnError behavior.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "apcsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes the whole command, reports to w and run statistics to
// log, so the CI smoke test can drive it in-process (the same pattern
// as cmd/apctop); only flag parsing stays in the flag package's hands
// (ContinueOnError, so bad flags surface as an error, not an exit).
func run(w, log io.Writer, args []string) error {
	fs := flag.NewFlagSet("apcsim", flag.ContinueOnError)
	fs.SetOutput(w)
	duration := fs.Duration("duration", 2*time.Second,
		"virtual measurement window per operating point")
	seed := fs.Uint64("seed", 1, "random seed for all generators")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"max sweep points simulated concurrently (1 = serial; results are identical either way)")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV series into")
	jsonDir := fs.String("json", "", "directory to write machine-readable JSON results into")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: apcsim [flags] list | run <experiment>... | scenario <file.json>... | <experiment>...\n")
		fmt.Fprintf(w, "experiments: %v all\n", experiments.Names())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h printed the usage; that is success, not an error.
			return nil
		}
		return errUsage
	}

	args = fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return errUsage
	}

	opt := experiments.Options{
		Duration:    sim.Duration(duration.Nanoseconds()),
		Seed:        *seed,
		Parallelism: *parallel,
	}
	out := outputs{log: log, csvDir: *csvDir, jsonDir: *jsonDir}
	if err := out.prepare(); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}

	switch args[0] {
	case "list":
		if len(args) != 1 {
			stopProfiles()
			fs.Usage()
			return errUsage
		}
		err = list(w)
	case "run":
		if len(args) < 2 {
			stopProfiles()
			fs.Usage()
			return errUsage
		}
		err = runExperiments(w, fs, args[1:], opt, &out)
	case "scenario":
		if len(args) < 2 {
			stopProfiles()
			fs.Usage()
			return errUsage
		}
		err = runScenarios(w, args[1:], opt, &out)
	default:
		// Shorthand: `apcsim all`, `apcsim fig7 table1`.
		err = runExperiments(w, fs, args, opt, &out)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	return err
}

// startProfiles arms the requested pprof outputs around the actual
// simulation work and returns the function that finishes them: it stops
// the CPU profile and, after a final GC so the heap numbers reflect
// live steady-state memory rather than collectible garbage, snapshots
// the allocation profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if memPath != "" {
			f, ferr := os.Create(memPath)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return err
			}
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}, nil
}

// list prints the registry in canonical order.
func list(w io.Writer) error {
	width := 0
	for _, name := range experiments.Names() {
		if len(name) > width {
			width = len(name)
		}
	}
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%-*s  %s\n", width, e.Name(), e.Describe())
	}
	return nil
}

// runExperiments resolves names against the registry and runs each one.
func runExperiments(w io.Writer, fs *flag.FlagSet, names []string, opt experiments.Options, out *outputs) error {
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		exp, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(w, "apcsim: unknown experiment %q\n", name)
			fs.Usage()
			return errUsage
		}
		start := time.Now()
		res, err := exp.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w, res.Report())
		fmt.Fprintf(out.log, "[%s completed in %v wall time]\n", name, time.Since(start).Round(time.Millisecond))
		if err := out.write(name, opt, res); err != nil {
			return err
		}
	}
	return nil
}

// runScenarios loads every file, rejects output-name collisions up
// front (a later scenario would silently clobber an earlier one's CSV
// and JSON files), then runs each scenario.
func runScenarios(w io.Writer, files []string, opt experiments.Options, out *outputs) error {
	var scs []scenario.Scenario
	for _, path := range files {
		loaded, err := scenario.LoadFile(path)
		if err != nil {
			return err
		}
		scs = append(scs, loaded...)
	}
	seen := map[string]string{}
	for _, sc := range scs {
		name := sanitize(sc.Name)
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("scenarios %q and %q would write the same output files (%s.*) — rename one", prev, sc.Name, name)
		}
		seen[name] = sc.Name
	}
	for _, sc := range scs {
		start := time.Now()
		res, err := sc.Run(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Report())
		fmt.Fprintf(out.log, "[%s completed in %v wall time]\n", sc.Name, time.Since(start).Round(time.Millisecond))
		// Record the options the scenario actually ran under (its
		// duration_ms/seed overrides applied), not the CLI defaults.
		if err := out.write(sanitize(sc.Name), sc.EffectiveOptions(opt), res); err != nil {
			return err
		}
	}
	return nil
}

// outputs writes the optional CSV and JSON artifacts next to the text
// reports, noting each file it writes on log.
type outputs struct {
	log     io.Writer
	csvDir  string
	jsonDir string
}

func (o *outputs) prepare() error {
	for _, dir := range []string{o.csvDir, o.jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

func (o *outputs) write(name string, opt experiments.Options, res experiments.Result) error {
	if o.csvDir != "" {
		if cw, ok := res.(experiments.CSVWriter); ok {
			path := filepath.Join(o.csvDir, name+".csv")
			if err := writeCSVFile(path, cw); err != nil {
				return err
			}
			fmt.Fprintf(o.log, "[wrote %s]\n", path)
		}
	}
	if o.jsonDir != "" {
		path := filepath.Join(o.jsonDir, name+".json")
		if err := writeJSONFile(path, name, opt, res); err != nil {
			return err
		}
		fmt.Fprintf(o.log, "[wrote %s]\n", path)
	}
	return nil
}

// writeCSVFile exports one result's data series. The close error is
// checked so a full disk is reported instead of swallowed.
func writeCSVFile(path string, w experiments.CSVWriter) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return w.WriteCSV(f)
}

// jsonEnvelope is the machine-readable form of one run: the experiment
// or scenario name, the options it ran under, and the full result
// struct.
type jsonEnvelope struct {
	Name    string              `json:"name"`
	Options experiments.Options `json:"options"`
	Result  any                 `json:"result"`
}

// writeJSONFile emits the machine-readable result, propagating the
// close error like writeCSVFile.
func writeJSONFile(path, name string, opt experiments.Options, res experiments.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonEnvelope{Name: name, Options: opt, Result: res})
}

// sanitize makes a scenario name safe as a filename.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, name)
}
