package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// Fig5Point is one QPS operating point of paper Fig. 5: average and tail
// latency of Memcached under the two baseline configurations.
type Fig5Point struct {
	QPS float64

	ShallowMean float64 // seconds
	ShallowP99  float64
	DeepMean    float64
	DeepP99     float64

	ShallowServed uint64
	DeepServed    uint64
}

// Fig5Result is the full sweep.
type Fig5Result struct {
	Points []Fig5Point
}

// DefaultFig5QPS is the swept request-rate axis; the shaded low-load
// region of the paper is 4K–100K.
var DefaultFig5QPS = []float64{4000, 10000, 20000, 50000, 100000, 200000, 300000, 400000}

func init() {
	Define(60, "fig5", "Memcached latency, Cshallow vs Cdeep (QPS sweep, paper Fig. 5)",
		func(o Options) (Result, error) { return Fig5(o, DefaultFig5QPS), nil })
}

// Fig5 sweeps Memcached load over Cshallow and Cdeep across the given
// request-rate axis (the paper's axis is DefaultFig5QPS).
func Fig5(opt Options, qpsList []float64) *Fig5Result {
	res := &Fig5Result{}
	res.Points = SweepWith(opt, qpsList, newPair, (*pair).release, func(m *pair, qps float64) Fig5Point {
		spec := workload.Memcached(qps)
		sh := m[0].runPoint(soc.Cshallow, spec, opt, false)
		dp := m[1].runPoint(soc.Cdeep, spec, opt, false)
		return Fig5Point{
			QPS:           qps,
			ShallowMean:   sh.srv.Latencies().Mean(),
			ShallowP99:    sh.srv.Latencies().Quantile(0.99),
			DeepMean:      dp.srv.Latencies().Mean(),
			DeepP99:       dp.srv.Latencies().Quantile(0.99),
			ShallowServed: sh.srv.Served(),
			DeepServed:    dp.srv.Served(),
		}
	})
	return res
}

// Report renders the sweep. It implements Result.
func (r *Fig5Result) Report() string {
	var b strings.Builder
	b.WriteString("Fig 5: Memcached latency, Cshallow vs Cdeep (paper: Cdeep worse everywhere; spike at >=300K)\n")
	t := &table{header: []string{"QPS", "Cshallow mean", "Cshallow p99", "Cdeep mean", "Cdeep p99", "Cdeep/Cshallow mean"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%.0fK", p.QPS/1000),
			Micros(p.ShallowMean), Micros(p.ShallowP99),
			Micros(p.DeepMean), Micros(p.DeepP99),
			fmt.Sprintf("%.2fx", p.DeepMean/p.ShallowMean))
	}
	b.WriteString(t.String())
	return b.String()
}
