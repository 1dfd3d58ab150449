package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/soc"
)

// FuzzLoadScenario fuzzes the JSON loader: whatever the bytes, Load
// must return cleanly — no panic — and any error that carries a byte
// offset must be wrapped with the line/column position
// (locateJSONError), so a mangled scenario file always points at the
// failing byte. The seed corpus is every shipped example scenario plus
// a few shapes the examples don't cover.
func FuzzLoadScenario(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) == 0 {
		f.Fatal("no example scenarios found for the seed corpus")
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"a"},{"name":"b"}]`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1}}{"trailing":1}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":"oops"}}`))
	f.Add([]byte(`{"name":"x","cluster":{"servers":2,"policy":"round_robin","faults":{"mtbf_us":-1}}}`))
	f.Add([]byte("{\"name\":\n\"unterminated"))
	// Tiered shapes: a valid two-tier graph, an edge into an unknown
	// tier, a hit ratio outside [0,1], fan-out on a never-miss edge,
	// and a two-edge cycle.
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1},"tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":0.9,"ttl_us":500,"fanout":2}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"nope","hit_ratio":0.5}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"kafka","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":2}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":1,"fanout":3}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"},{"name":"c","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":0.5},{"from":"b","to":"c","hit_ratio":0.5},{"from":"c","to":"b","hit_ratio":0.5}]}`))

	// Shapes that loaded and then failed in Run: sub-nanosecond values
	// the cluster reads as zero (a repair time, a P99 target, a TTL on a
	// fan-out hit edge), racks that do not divide a tier, and an
	// override index beyond a swept fleet size.
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"round_robin","faults":{"mtbf_us":5000,"mttr_us":0.0001}}}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"power_aware","p99_target_us":0.0001}}`))
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1000},"tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":1,"ttl_us":0.0001,"fanout":3}]}`))
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1000},"tiers":[{"name":"a","servers":3,"racks":2,"policy":"round_robin"}]}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"round_robin","server_overrides":{"3":{}}},"sweep":{"axis":"servers","values":[2,4]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		scs, err := Load(bytes.NewReader(data))
		if err != nil {
			// Offset-carrying decode errors must be located: the wrap
			// contract is "line L, column C (byte N)" prefixed onto the
			// original error.
			var synErr *json.SyntaxError
			var typeErr *json.UnmarshalTypeError
			if errors.As(err, &synErr) || errors.As(err, &typeErr) {
				var off int64
				if synErr != nil {
					off = synErr.Offset
				} else {
					off = typeErr.Offset
				}
				if off >= 1 && off <= int64(len(data)) && !strings.Contains(err.Error(), "line ") {
					t.Errorf("offset-carrying error not located: %v", err)
				}
			}
			return
		}
		// A loaded scenario has passed Validate; re-running it must
		// agree (Load's contract is "valid or error", never "loaded
		// but invalid").
		for i := range scs {
			if err := scs[i].Validate(); err != nil {
				t.Errorf("Load returned scenario %d that fails Validate: %v", i, err)
			}
			checkPointGraphs(t, &scs[i])
		}
	})
}

// checkPointGraphs is FuzzLoadScenario's no-panic property: every point
// of a loaded scenario converts, through the run's own conversion
// (runConfig), into a graph the cluster layer accepts, so runGraph can
// never reach its panic. It simulates nothing. Trace points need their
// recording, sysbench points bypass the cluster, and a point without a
// rate is Run's to reject. Fleets above maxFuzzServers are skipped:
// their member configurations alone would not fit in memory.
func checkPointGraphs(t *testing.T, s *Scenario) {
	const maxFuzzServers = 256
	if s.Workload.Service == "trace" || s.Workload.Service == "sysbench" {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("scenario %q: building a point's graph panicked: %v", s.Name, r)
		}
	}()
	kind, _ := soc.ParseConfigKind(s.Config)
	for _, v := range s.values() {
		axis := ""
		if s.Sweep != nil {
			axis = s.Sweep.Axis
		}
		g, _ := s.at(axis, v).asGraph()
		servers := 0
		for _, tier := range g.Tiers {
			servers += tier.Servers
		}
		if servers > maxFuzzServers {
			continue
		}
		spec, err := g.Workload.spec(soc.DefaultConfig(kind).CoreCount * g.Tiers[0].Servers)
		if err != nil {
			continue
		}
		gcfg, err := g.runConfig(kind, spec)
		if err == nil {
			err = gcfg.Validate()
		}
		if err != nil {
			t.Errorf("scenario %q [%g]: loaded, but the cluster rejects the point: %v", s.Name, v, err)
		}
	}
}
