// Command tracegen produces and inspects binary arrival traces in the
// format internal/workload/replay defines (DESIGN.md §10). It is the
// authoring side of the replay subsystem: synth records a synthetic
// generator's exact stream deterministically from a seed, convert turns
// a CSV arrival log into the binary format, and dump renders a binary
// trace back to the same CSV for inspection.
//
// Usage:
//
//	tracegen synth   -o out.trace [-service memcached] [-qps N] ...
//	tracegen convert -o out.trace -name NAME in.csv
//	tracegen dump    file.trace
//
// The CSV schema (both convert's input and dump's output) is one
// header line then one arrival per line:
//
//	ts_us,service_us,conn,mem
//
// Timestamps are microseconds from the trace origin, fractional values
// allowed; conn is the zero-based connection index; mem the request's
// per-window memory access count. convert derives the header's summary
// meta from the data: mean QPS from count over span, service mean from
// the sample mean, connections from max conn + 1, mem accesses from
// the max mem column.
//
// A trace synthesized with `tracegen synth` and replayed through a
// scenario's workload.trace block reproduces the equivalent synthetic
// scenario byte for byte at equal -warmup/-duration — the parity
// contract TestReplayMatchesSynthetic enforces.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// errUsage marks a command-line mistake after the usage text has been
// printed; main exits 2 for it, like cmd/apcsim.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: tracegen <command> [flags]

  synth    synthesize a trace from a workload generator (deterministic per seed)
  convert  convert a ts_us,service_us,conn,mem CSV log to a binary trace
  dump     print a binary trace's header and records as CSV

Run "tracegen <command> -h" for the command's flags.
`)
}

// run executes the whole command against w so the smoke tests can drive
// it in-process.
func run(w io.Writer, args []string) error {
	if len(args) == 0 {
		usage(w)
		return errUsage
	}
	switch args[0] {
	case "synth":
		return runSynth(w, args[1:])
	case "convert":
		return runConvert(w, args[1:])
	case "dump":
		return runDump(w, args[1:])
	case "-h", "-help", "--help", "help":
		usage(w)
		return nil
	default:
		fmt.Fprintf(w, "tracegen: unknown command %q\n", args[0])
		usage(w)
		return errUsage
	}
}

// errHelp marks an explicit -h: the usage was printed and the command
// is done, successfully.
var errHelp = errors.New("help")

// parseFlags finishes a flag set the shared way: -h is errHelp (the
// caller returns success), anything else malformed is errUsage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return errHelp
		}
		return errUsage
	}
	return nil
}

// runSynth records a synthetic generator into a trace file. The
// service/rate flags mirror the scenario schema's workload block, so a
// synthesized trace slots into the scenario the flags describe.
func runSynth(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracegen synth", flag.ContinueOnError)
	fs.SetOutput(w)
	out := fs.String("o", "", "output trace file (required)")
	service := fs.String("service", "memcached", "workload kind: memcached, memcached-bursty, mysql, kafka")
	qps := fs.Float64("qps", 40000, "aggregate arrival rate (memcached kinds)")
	burstiness := fs.Float64("burstiness", 8, "burst peak-to-mean ratio (memcached-bursty)")
	load := fs.Float64("load", 0.16, "per-core utilization (mysql, kafka)")
	cores := fs.Int("cores", 8, "core count the load flag is scaled by (mysql, kafka)")
	seed := fs.Uint64("seed", 1, "random seed; equal seeds produce equal traces")
	warmup := fs.Duration("warmup", 0, "settle window recorded before the measured stream (0 = the runner's default for -duration)")
	duration := fs.Duration("duration", 2*time.Second, "measured window to record")
	switch err := parseFlags(fs, args); {
	case errors.Is(err, errHelp):
		return nil
	case err != nil:
		return err
	case len(fs.Args()) > 0 || *out == "":
		fs.Usage()
		return errUsage
	}
	spec, err := resolveSpec(*service, *qps, *burstiness, *load, *cores)
	if err != nil {
		return err
	}
	dur := sim.Duration(duration.Nanoseconds())
	if dur <= 0 {
		return fmt.Errorf("synth: non-positive -duration %v", duration)
	}
	warm := sim.Duration(warmup.Nanoseconds())
	if warm < 0 {
		return fmt.Errorf("synth: negative -warmup %v", warmup)
	}
	if warm == 0 {
		warm = defaultWarmup(dur)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	hdr, err := replay.Synthesize(f, spec, *seed, warm, dur)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d records of %s over %v (seed %d)\n",
		*out, hdr.Count, hdr.Name, time.Duration(warm+dur), *seed)
	return nil
}

// defaultWarmup mirrors experiments.Options.Warmup so a bare
// `tracegen synth -duration 2s` records the window a scenario run at
// -duration 2s replays. (Restated rather than imported: cmd binaries
// depend on the replay and workload layers only.)
func defaultWarmup(d sim.Duration) sim.Duration {
	warm := d / 10
	if warm > 50*sim.Millisecond {
		warm = 50 * sim.Millisecond
	}
	return warm
}

// resolveSpec maps the synth flags to a workload spec, mirroring the
// scenario layer's service names.
func resolveSpec(service string, qps, burstiness, load float64, cores int) (workload.Spec, error) {
	switch service {
	case "memcached":
		if qps <= 0 {
			return workload.Spec{}, fmt.Errorf("synth: memcached needs -qps > 0")
		}
		return workload.Memcached(qps), nil
	case "memcached-bursty":
		if qps <= 0 || burstiness < 1 {
			return workload.Spec{}, fmt.Errorf("synth: memcached-bursty needs -qps > 0 and -burstiness >= 1")
		}
		return workload.MemcachedBursty(qps, burstiness), nil
	case "mysql", "kafka":
		if load <= 0 || load > 1 || cores <= 0 {
			return workload.Spec{}, fmt.Errorf("synth: %s needs -load in (0,1] and -cores > 0", service)
		}
		if service == "mysql" {
			return workload.MySQL(load, cores), nil
		}
		return workload.Kafka(load, cores), nil
	default:
		return workload.Spec{}, fmt.Errorf("synth: unknown -service %q (memcached, memcached-bursty, mysql, kafka)", service)
	}
}

// runConvert turns a CSV arrival log into a binary trace.
func runConvert(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracegen convert", flag.ContinueOnError)
	fs.SetOutput(w)
	out := fs.String("o", "", "output trace file (required)")
	name := fs.String("name", "", "workload name recorded in the header (required)")
	switch err := parseFlags(fs, args); {
	case errors.Is(err, errHelp):
		return nil
	case err != nil:
		return err
	case len(fs.Args()) != 1 || *out == "" || *name == "":
		fs.Usage()
		return errUsage
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	recs, meta, err := readCSV(in, *name)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	hdr, err := writeAll(f, meta, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d records, %.1f mean QPS, %d connections\n",
		*out, hdr.Count, hdr.MeanQPS, hdr.Connections)
	return nil
}

func writeAll(ws io.WriteSeeker, meta replay.Meta, recs []replay.Record) (replay.Header, error) {
	wr, err := replay.NewWriter(ws, meta)
	if err != nil {
		return replay.Header{}, err
	}
	for i, rec := range recs {
		if err := wr.Append(rec); err != nil {
			return replay.Header{}, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return wr.Close()
}

// csvHeader is the dump output and convert input schema.
const csvHeader = "ts_us,service_us,conn,mem"

// readCSV parses the arrival log and derives the header meta from the
// data itself: mean QPS from count over span, service mean from the
// sample mean, connections from the widest index seen.
func readCSV(r io.Reader, name string) ([]replay.Record, replay.Meta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	if !sc.Scan() {
		return nil, replay.Meta{}, fmt.Errorf("empty input — want a %q header line", csvHeader)
	}
	if got := strings.TrimSpace(sc.Text()); got != csvHeader {
		return nil, replay.Meta{}, fmt.Errorf("line 1: header %q, want %q", got, csvHeader)
	}
	var (
		recs    []replay.Record
		svcSum  float64
		maxConn uint32
		maxMem  uint32
		line    = 1
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 4 {
			return nil, replay.Meta{}, fmt.Errorf("line %d: %d fields, want 4 (%s)", line, len(fields), csvHeader)
		}
		tsUS, err1 := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		svcUS, err2 := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		conn, err3 := strconv.ParseUint(strings.TrimSpace(fields[2]), 10, 32)
		mem, err4 := strconv.ParseUint(strings.TrimSpace(fields[3]), 10, 32)
		// sim.InHorizon also rejects NaN, the infinities and values
		// beyond the engine's horizon, which no run could reach.
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || tsUS < 0 || svcUS < 0 ||
			!sim.InHorizon(tsUS, sim.Microsecond) || !sim.InHorizon(svcUS, sim.Microsecond) {
			return nil, replay.Meta{}, fmt.Errorf("line %d: malformed record %q", line, text)
		}
		rec := replay.Record{
			TS:      sim.Time(tsUS * float64(sim.Microsecond)),
			Service: sim.Duration(svcUS * float64(sim.Microsecond)),
			Conn:    uint32(conn),
			Mem:     uint32(mem),
		}
		if len(recs) > 0 && rec.TS < recs[len(recs)-1].TS {
			return nil, replay.Meta{}, fmt.Errorf("line %d: timestamp %gus before its predecessor — the log must be sorted", line, tsUS)
		}
		recs = append(recs, rec)
		svcSum += svcUS * 1e-6
		if rec.Conn > maxConn {
			maxConn = rec.Conn
		}
		if rec.Mem > maxMem {
			maxMem = rec.Mem
		}
	}
	if err := sc.Err(); err != nil {
		return nil, replay.Meta{}, err
	}
	if len(recs) == 0 {
		return nil, replay.Meta{}, fmt.Errorf("no records — nothing to convert")
	}
	meta := replay.Meta{
		Name:        name,
		ServiceMean: svcSum / float64(len(recs)),
		Connections: int(maxConn) + 1,
		MemAccesses: int(maxMem),
	}
	if span := recs[len(recs)-1].TS - recs[0].TS; span > 0 {
		meta.MeanQPS = float64(len(recs)) / (float64(span) / float64(sim.Second))
	} else {
		meta.MeanQPS = float64(len(recs))
	}
	return recs, meta, nil
}

// runDump prints a trace's header as comments and its records as the
// convert CSV schema, so dump | convert round-trips.
func runDump(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracegen dump", flag.ContinueOnError)
	fs.SetOutput(w)
	switch err := parseFlags(fs, args); {
	case errors.Is(err, errHelp):
		return nil
	case err != nil:
		return err
	case len(fs.Args()) != 1:
		fs.Usage()
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		return err
	}
	hdr := rd.Header()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# workload: %s\n", hdr.Name)
	fmt.Fprintf(bw, "# records: %d, span: %v .. %v\n", hdr.Count, hdr.FirstTS, hdr.LastTS)
	fmt.Fprintf(bw, "# mean_qps: %g, service_mean_s: %g, connections: %d, mem_accesses: %d\n",
		hdr.MeanQPS, hdr.ServiceMean, hdr.Connections, hdr.MemAccesses)
	fmt.Fprintln(bw, csvHeader)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%g,%g,%d,%d\n",
			float64(rec.TS)/float64(sim.Microsecond),
			float64(rec.Service)/float64(sim.Microsecond),
			rec.Conn, rec.Mem)
	}
	return bw.Flush()
}
