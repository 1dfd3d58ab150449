package scenario

import (
	"io/fs"
	"reflect"
	"slices"
	"testing"

	"agilepkgc/internal/experiments"
)

// TestBuiltinScenariosLoad checks every embedded experiment file: it
// parses and validates, leaves duration and seed to the caller's
// Options, and registers under its fixed name and ordinal, and no
// embedded file goes unregistered. The canonical order itself is
// pinned by the registry test in package experiments.
func TestBuiltinScenariosLoad(t *testing.T) {
	want := []struct {
		ord  int
		name string
	}{
		{150, "cluster-scaling"}, {160, "cluster-policy"}, {170, "rack-packing"},
		{180, "drain-hysteresis"}, {190, "fault-resilience"}, {210, "tiered-cache"},
	}
	if len(builtins) != len(want) {
		t.Fatalf("%d builtins registered, want %d", len(builtins), len(want))
	}
	var files []string
	seen := map[string]bool{}
	for i, b := range builtins {
		if b.ord != want[i].ord || b.name != want[i].name {
			t.Errorf("builtin %d is %d %q, want %d %q", i, b.ord, b.name, want[i].ord, want[i].name)
		}
		e, ok := experiments.Lookup(b.name)
		if !ok || e.Describe() != b.desc {
			t.Errorf("%s: not registered with its description", b.name)
		}
		file := "builtin/" + b.name + ".json"
		files = append(files, file)
		scs, err := loadBuiltin(file)
		if err != nil {
			t.Errorf("%s: %v", b.name, err)
			continue
		}
		for _, sc := range scs {
			if sc.DurationMS != 0 || sc.Seed != 0 {
				t.Errorf("%s: scenario %q overrides duration_ms or seed", b.name, sc.Name)
			}
			if seen[sc.Name] {
				t.Errorf("%s: scenario name %q is not unique", b.name, sc.Name)
			}
			seen[sc.Name] = true
		}
	}
	// Every embedded file is registered: none is dead data.
	embedded, err := fs.Glob(builtinFiles, "builtin/*.json")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	if !reflect.DeepEqual(embedded, files) {
		t.Errorf("embedded files %v, registered %v", embedded, files)
	}
}
