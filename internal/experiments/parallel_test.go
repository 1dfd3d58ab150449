package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"agilepkgc/internal/sim"
)

// fastOptions keeps serial-vs-parallel comparison runs cheap.
func fastOptions() Options {
	return Options{Duration: 20 * sim.Millisecond, Seed: 1}
}

// TestRunPointsOrderAndCoverage checks that Sweep, through runPoints,
// returns every point's result in point order at any parallelism.
func TestRunPointsOrderAndCoverage(t *testing.T) {
	points := make([]int, 20)
	for i := range points {
		points[i] = i
	}
	for _, par := range []int{1, 2, 7, 64} {
		got := Sweep(Options{Parallelism: par}, points, func(i int) int { return i * i })
		if len(got) != len(points) {
			t.Fatalf("par=%d: %d results for %d points", par, len(got), len(points))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
	if got := Sweep(Options{Parallelism: 4}, nil, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 returned %v", got)
	}
}

// TestRunPointsBoundedWorkers checks that no more than Parallelism
// points of a Sweep are in flight at once.
func TestRunPointsBoundedWorkers(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int64
	Sweep(Options{Parallelism: par}, make([]int, 24), func(int) struct{} {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for j := 0; j < 1000; j++ { // linger so overlap is observable
			_ = j
		}
		inFlight.Add(-1)
		return struct{}{}
	})
	if got := peak.Load(); got > par {
		t.Fatalf("observed %d concurrent points, worker pool bound is %d", got, par)
	}
}

// TestSweepRace drives real sweep experiments under the race detector
// (go test -race): every point builds its own engine, so the only shared
// write is each worker's disjoint result slot.
func TestSweepRace(t *testing.T) {
	opt := fastOptions()
	opt.Parallelism = 8
	Fig5(opt, []float64{4000, 20000, 50000, 100000})
	Fig7(opt, []float64{4000, 50000})
	Batching(opt, 50000, DefaultBatchingEpochs)
}

// TestSerialParallelBitIdentical is the determinism contract of the
// sweep layer: the same seed must produce byte-for-byte identical
// results at any parallelism.
func TestSerialParallelBitIdentical(t *testing.T) {
	serial := fastOptions()
	parallel := fastOptions()
	parallel.Parallelism = 4

	if !reflect.DeepEqual(Fig5(serial, []float64{4000, 50000}), Fig5(parallel, []float64{4000, 50000})) {
		t.Error("Fig5 serial and parallel results differ")
	}
	if !reflect.DeepEqual(Fig7(serial, []float64{4000, 50000}), Fig7(parallel, []float64{4000, 50000})) {
		t.Error("Fig7 serial and parallel results differ")
	}
	if !reflect.DeepEqual(Fig9(serial), Fig9(parallel)) {
		t.Error("Fig9 serial and parallel results differ")
	}
	if !reflect.DeepEqual(Remote(serial, DefaultRemoteQPS, []float64{0, 10000}), Remote(parallel, DefaultRemoteQPS, []float64{0, 10000})) {
		t.Error("Remote serial and parallel results differ")
	}
}
