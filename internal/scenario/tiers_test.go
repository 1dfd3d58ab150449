package scenario

import (
	"regexp"
	"strings"
	"testing"
)

// tieredScenario is the canonical two-tier shape the graph tests run: a
// memcached-driven cache tier in front of a mysql backend, wired by one
// lossy edge.
func tieredScenario() Scenario {
	return Scenario{
		Name:     "tiered",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 40000},
		Tiers: []Tier{
			{Name: "cache", Cluster: Cluster{Servers: 2, Policy: "power_aware", P99TargetUS: 300}},
			{Name: "db", Service: "mysql", Cluster: Cluster{Servers: 2, Policy: "round_robin"}},
		},
		Edges: []Edge{{From: "cache", To: "db", HitRatio: 0.8, TTLUS: 500, Fanout: 2}},
	}
}

// TestTiersSingleTierParity is the tentpole's defining contract at the
// scenario layer: a one-tier tiers scenario must produce byte-identical
// report and CSV output to the equivalent cluster scenario — the
// one-tier graph IS the cluster block.
func TestTiersSingleTierParity(t *testing.T) {
	cases := []struct {
		name    string
		cluster Cluster
		sweep   *Sweep
	}{
		{"power_aware", Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 300}, nil},
		{"racked drain", Cluster{
			Servers: 4, Policy: "rack_power_aware", P99TargetUS: 300,
			Racks: 2, TorLatencyUS: 5, DrainHoldUS: 1000, FeedbackEpochUS: 1000,
		}, nil},
		{"faults", Cluster{
			Servers: 4, Policy: "round_robin",
			Faults: &Faults{MTBFUS: 20000, MTTRUS: 2000, RequestTimeoutUS: 2000, MaxRetries: 2},
		}, nil},
		{"qps sweep", Cluster{Servers: 2, Policy: "least_loaded"},
			&Sweep{Axis: AxisQPS, Values: []float64{20000, 60000}}},
	}
	for _, c := range cases {
		clustered := Scenario{
			Name:     "parity-tiered",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached", QPS: 40000},
			Cluster:  &c.cluster,
			Sweep:    c.sweep,
		}
		tiered := clustered
		tiered.Cluster = nil
		tiered.Tiers = []Tier{{Name: "fleet", Cluster: c.cluster}}

		opt := quickOpt()
		cRep, cCSV := runArtifacts(t, clustered, opt)
		tRep, tCSV := runArtifacts(t, tiered, opt)
		if cRep != tRep {
			t.Errorf("%s: reports differ:\ncluster:\n%s\ntiers:\n%s", c.name, cRep, tRep)
		}
		if cCSV != tCSV {
			t.Errorf("%s: CSV differs:\ncluster:\n%s\ntiers:\n%s", c.name, cCSV, tCSV)
		}
	}
}

// TestTieredRunEndToEnd drives the two-tier scenario through Run and
// checks the full output surface: per-tier and per-edge breakdowns,
// the client view, cross-tier conservation, and the rendered tables.
func TestTieredRunEndToEnd(t *testing.T) {
	res, err := tieredScenario().Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("want 1 point, got %d", len(res.Points))
	}
	p := res.Points[0]
	if len(p.Tiers) != 2 || len(p.Edges) != 1 || p.Client == nil {
		t.Fatalf("missing graph breakdowns: %d tiers, %d edges, client %v",
			len(p.Tiers), len(p.Edges), p.Client)
	}
	e := p.Edges[0]
	if e.From != "cache" || e.To != "db" {
		t.Errorf("edge names %s->%s, want cache->db", e.From, e.To)
	}
	// Conservation: every miss issues fanout backend requests, and the
	// backend generates exactly what the edge issued.
	if e.Issued != 2*e.Misses {
		t.Errorf("issued %d != fanout 2 x misses %d", e.Issued, e.Misses)
	}
	if got := p.Tiers[1].Fleet.Generated; got != e.Issued {
		t.Errorf("backend generated %d != edge issued %d", got, e.Issued)
	}
	if e.Hits != e.Lookups-e.Misses {
		t.Errorf("hits %d != lookups %d - misses %d", e.Hits, e.Lookups, e.Misses)
	}
	if p.Served != p.Client.Served || p.Served == 0 {
		t.Errorf("aggregate served %d should be the client view %d", p.Served, p.Client.Served)
	}
	if p.Generated != p.Tiers[0].Fleet.Generated {
		t.Errorf("aggregate generated %d should be the root tier's %d",
			p.Generated, p.Tiers[0].Fleet.Generated)
	}
	if p.TotalWatts <= p.Tiers[0].Fleet.TotalWatts {
		t.Errorf("aggregate watts %.1f should sum the tiers (root alone %.1f)",
			p.TotalWatts, p.Tiers[0].Fleet.TotalWatts)
	}

	rep := res.Report()
	for _, want := range []string{"2-tier graph", "per-tier", "edges [", "cache->db"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"axis,axis_label,tier,served,generated",
		"axis,axis_label,edge_from,edge_to,hit_ratio",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("CSV missing %q:\n%s", want, b.String())
		}
	}
}

// TestTieredSweepBitIdentical extends the determinism contract to graph
// sweeps: a hit-ratio sweep over a two-tier graph is bit-identical at
// any parallelism and across repeated runs (exercising the worker-pool
// GraphReuse reset path against fresh builds).
func TestTieredSweepBitIdentical(t *testing.T) {
	swept := func() Scenario {
		sc := tieredScenario()
		sc.Sweep = &Sweep{Axis: AxisHitRatio, Values: []float64{0.2, 0.5, 0.9}}
		return sc
	}
	serial, parallel := quickOpt(), quickOpt()
	serial.Parallelism = 1
	parallel.Parallelism = 8
	sRep, sCSV := runArtifacts(t, swept(), serial)
	pRep, pCSV := runArtifacts(t, swept(), parallel)
	if sRep != pRep || sCSV != pCSV {
		t.Error("tiered sweep artifacts depend on parallelism")
	}
	rRep, rCSV := runArtifacts(t, swept(), serial)
	if sRep != rRep || sCSV != rCSV {
		t.Error("repeated tiered runs with one seed differ")
	}
}

// TestTieredFanoutSweep pins the fan-out axis end to end: doubling the
// fan-out doubles what the edge issues into the backend.
func TestTieredFanoutSweep(t *testing.T) {
	sc := tieredScenario()
	sc.Edges[0].Fanout = 0
	sc.Sweep = &Sweep{Axis: AxisFanout, Values: []float64{1, 2}}
	res, err := sc.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := res.Points[0].Edges[0], res.Points[1].Edges[0]
	if e1.Fanout != 1 || e2.Fanout != 2 {
		t.Fatalf("fanouts %d, %d — sweep not applied", e1.Fanout, e2.Fanout)
	}
	if e1.Issued != e1.Misses || e2.Issued != 2*e2.Misses {
		t.Errorf("issued/misses: %d/%d at fanout 1, %d/%d at fanout 2",
			e1.Issued, e1.Misses, e2.Issued, e2.Misses)
	}
}

// tieredJSON is the valid two-tier file the located-error cases mutate;
// line numbers in the assertions below index into this literal.
const tieredJSON = `{
  "name": "tiered",
  "config": "CPC1A",
  "workload": {"service": "memcached", "qps": 40000},
  "tiers": [
    {"name": "cache", "servers": 2, "policy": "round_robin"},
    {"name": "db", "service": "mysql", "servers": 2, "policy": "round_robin"},
    {"name": "cold", "service": "mysql", "servers": 2, "policy": "round_robin"}
  ],
  "edges": [
    {"from": "cache", "to": "db", "hit_ratio": 0.8},
    {"from": "db", "to": "cold", "hit_ratio": 0.5}
  ]
}`

// TestTiersValidationLocated is the ISSUE's satellite contract: every
// rejected tiers/edges shape comes back with the line and column of the
// failing array element, not just a message.
func TestTiersValidationLocated(t *testing.T) {
	located := regexp.MustCompile(`line \d+, column \d+`)
	cases := []struct {
		name string
		mut  func(string) string
		want string
		line string
	}{
		{"edge to unknown tier",
			func(s string) string {
				return strings.Replace(s, `"to": "db", "hit_ratio": 0.8`, `"to": "store", "hit_ratio": 0.8`, 1)
			},
			`unknown tier "store"`, "line 11"},
		{"hit ratio outside [0,1]",
			func(s string) string { return strings.Replace(s, `"hit_ratio": 0.8`, `"hit_ratio": 1.2`, 1) },
			"outside [0, 1]", "line 11"},
		{"fan-out on a hit edge",
			func(s string) string {
				return strings.Replace(s, `"hit_ratio": 0.5`, `"hit_ratio": 1, "fanout": 3`, 1)
			},
			"never misses", "line 12"},
		{"cycle in graph",
			func(s string) string {
				return strings.Replace(s, `{"from": "db", "to": "cold", "hit_ratio": 0.5}`,
					`{"from": "db", "to": "cold", "hit_ratio": 0.5},
    {"from": "cold", "to": "db", "hit_ratio": 0.5}`, 1)
			},
			"closes a cycle", "line 12"},
		{"unreachable tier",
			func(s string) string {
				return strings.Replace(s, `,
    {"from": "db", "to": "cold", "hit_ratio": 0.5}`, "", 1)
			},
			"unreachable", "line 8"},
		{"root tier with service",
			func(s string) string {
				return strings.Replace(s, `{"name": "cache",`, `{"name": "cache", "service": "memcached",`, 1)
			},
			"drop its service field", "line 6"},
		{"backend tier without service",
			func(s string) string { return strings.Replace(s, `"db", "service": "mysql",`, `"db",`, 1) },
			"needs a service", "line 7"},
		{"sub-nanosecond ttl on a fan-out hit edge",
			func(s string) string {
				return strings.Replace(s, `"hit_ratio": 0.5`, `"hit_ratio": 1, "ttl_us": 0.0001, "fanout": 3`, 1)
			},
			"never misses", "line 12"},
		{"racks that do not divide the tier",
			func(s string) string {
				return strings.Replace(s, `{"name": "cache", "servers": 2,`, `{"name": "cache", "servers": 3, "racks": 2,`, 1)
			},
			"tiers[0].racks 2 does not divide 3 servers", "line 6"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.mut(tieredJSON)))
		if err == nil {
			t.Errorf("%s: loaded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
		if !located.MatchString(err.Error()) {
			t.Errorf("%s: error carries no line/column: %q", c.name, err)
		} else if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: error %q locates the wrong element (want %s)", c.name, err, c.line)
		}
	}

	// The unmutated file is valid — the cases above fail for the reason
	// they claim, not a broken fixture.
	if _, err := Load(strings.NewReader(tieredJSON)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
}

// TestTiersValidation covers the programmatic rejection surface that
// needs no source location: block-level contradictions and sweep-axis
// interactions.
func TestTiersValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"tiers and cluster", func(s *Scenario) {
			s.Cluster = &Cluster{Servers: 1, Policy: "round_robin"}
		}, "mutually exclusive"},
		{"edges without tiers", func(s *Scenario) { s.Tiers = nil }, "edges need a tiers block"},
		{"unnamed tier", func(s *Scenario) { s.Tiers[1].Name = "" }, "has no name"},
		{"duplicate tier name", func(s *Scenario) { s.Tiers[1].Name = "cache" }, "duplicates"},
		{"unknown backend service", func(s *Scenario) { s.Tiers[1].Service = "redis" }, "unknown service"},
		{"sysbench tiers", func(s *Scenario) {
			s.Workload = Workload{Service: "sysbench", Threads: 4}
			s.Edges[0].HitRatio = 0.8
		}, "open-loop"},
		{"tier cluster field", func(s *Scenario) { s.Tiers[0].Servers = 0 }, "tiers[0].servers"},
		{"edge into the root", func(s *Scenario) {
			s.Edges = append(s.Edges, Edge{From: "db", To: "cache", HitRatio: 0.5})
		}, "client-facing"},
		{"self edge", func(s *Scenario) {
			s.Edges = append(s.Edges, Edge{From: "db", To: "db", HitRatio: 0.5})
		}, "onto itself"},
		{"negative ttl", func(s *Scenario) { s.Edges[0].TTLUS = -1 }, "negative edges[0].ttl_us"},
		{"negative fanout", func(s *Scenario) { s.Edges[0].Fanout = -1 }, "negative edges[0].fanout"},
		{"edge axis without edges", func(s *Scenario) {
			s.Tiers, s.Edges = s.Tiers[:1], nil
			s.Sweep = &Sweep{Axis: AxisHitRatio, Values: []float64{0.5}}
		}, "needs a tiers block with edges"},
		{"hit_ratio value above 1", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisHitRatio, Values: []float64{0.5, 1.5}}
		}, "outside [0, 1]"},
		{"fractional fanout value", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisFanout, Values: []float64{1.5}}
		}, "not an integer"},
		{"fanout value below 1", func(s *Scenario) {
			s.Sweep = &Sweep{Axis: AxisFanout, Values: []float64{0}}
		}, "below 1"},
		{"fanout axis on a hit edge", func(s *Scenario) {
			s.Edges[0].HitRatio, s.Edges[0].TTLUS, s.Edges[0].Fanout = 1, 0, 0
			s.Sweep = &Sweep{Axis: AxisFanout, Values: []float64{1, 2}}
		}, "inert"},
		{"hit_ratio value saturating a fanout edge", func(s *Scenario) {
			s.Edges[0].TTLUS = 0
			s.Sweep = &Sweep{Axis: AxisHitRatio, Values: []float64{0.5, 1}}
		}, "never miss"},
		{"ttl value 0 on a hit fanout edge", func(s *Scenario) {
			s.Edges[0].HitRatio = 1
			s.Sweep = &Sweep{Axis: AxisTTL, Values: []float64{0, 500}}
		}, "never miss"},
	}
	for _, c := range cases {
		sc := tieredScenario()
		c.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}

	// The base shape is valid, so every rejection above comes from its
	// mutation.
	sc := tieredScenario()
	if err := sc.Validate(); err != nil {
		t.Fatalf("base tiered scenario invalid: %v", err)
	}
}
