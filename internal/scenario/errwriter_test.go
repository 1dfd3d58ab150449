package scenario

import (
	"errors"
	"testing"
)

// failWriter fails every write after the first n succeed — a stand-in
// for a full disk or closed pipe at an arbitrary point in the stream.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestWriteCSVPropagatesWriterErrors drives WriteCSV into a writer that
// fails at the header and at each data row: every failure point must
// surface the writer's error, never a silent short file. The swept
// single machine writes the aggregate table alone; the two-tier graph
// with a faults block adds the tier, edge and fault tables.
func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	sc := Scenario{
		Name:     "errprop",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 10000},
		Sweep:    &Sweep{Axis: AxisQPS, Values: []float64{5000, 10000}},
	}
	graph := tieredScenario()
	graph.Tiers[1].Faults = &Faults{RequestTimeoutUS: 2000, MaxRetries: 1}
	for _, c := range []struct {
		sc     Scenario
		writes int
	}{
		{sc, 3},    // header + 2 sweep rows
		{graph, 9}, // 4 headers + 1 aggregate, 2 tier, 1 edge and 1 fault row
	} {
		res, err := c.sc.Run(quickOpt())
		if err != nil {
			t.Fatal(err)
		}
		drillWriteCSV(t, res, c.writes)
	}
}

// drillWriteCSV counts the writes of a clean WriteCSV, at least min,
// then fails the writer after each prefix of them.
func drillWriteCSV(t *testing.T, res *Result, min int) {
	t.Helper()
	cw := &countingWriter{}
	if err := res.WriteCSV(cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes < min {
		t.Fatalf("%s: expected at least %d writes, got %d", res.Scenario.Name, min, cw.writes)
	}
	sentinel := errors.New("disk full")
	for n := 0; n < cw.writes; n++ {
		if err := res.WriteCSV(&failWriter{n: n, err: sentinel}); !errors.Is(err, sentinel) {
			t.Errorf("%s: failure after %d writes was swallowed: got %v", res.Scenario.Name, n, err)
		}
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestWriteCSVPropagatesWriterErrorsRacks repeats the prefix-failure
// drill on a multi-rack fleet result, whose CSV adds the rack-zone
// table: the second header and every per-rack row are additional
// failure points that must propagate too.
func TestWriteCSVPropagatesWriterErrorsRacks(t *testing.T) {
	sc := rackScenario()
	sc.Sweep = &Sweep{Axis: AxisTorLatency, Values: []float64{0, 10}}
	sc.Cluster.TorLatencyUS = 0
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// 2 headers + 2 aggregate rows + 2 points × 2 racks.
	drillWriteCSV(t, res, 8)
}
