package experiments_test

import (
	"reflect"
	"testing"

	"agilepkgc/internal/experiments"
	_ "agilepkgc/internal/scenario" // registers the builtin scenario experiments
)

// TestRegistryCanonicalOrder pins the registered set and its canonical
// order — the order `apcsim run all` executes and DESIGN.md §3 lists.
func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{
		"table1", "table2", "sec54", "sec55", "eq1",
		"fig5", "fig6", "fig7", "fig8", "fig9",
		"area", "sensitivity", "batching", "remote",
		"cluster-scaling", "cluster-policy", "rack-packing",
		"drain-hysteresis", "fault-resilience", "trace-replay",
		"tiered-cache",
	}
	if got := experiments.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry order = %v, want %v", got, want)
	}
	if len(experiments.All()) != len(want) {
		t.Fatalf("All() has %d entries, want %d", len(experiments.All()), len(want))
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, e := range experiments.All() {
		got, ok := experiments.Lookup(e.Name())
		if !ok || got.Name() != e.Name() {
			t.Fatalf("Lookup(%q) = %v, %v", e.Name(), got, ok)
		}
		if got.Describe() == "" {
			t.Errorf("%s has no description", e.Name())
		}
	}
	if _, ok := experiments.Lookup("no-such-experiment"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate name", func() {
		experiments.Define(9999, "table1", "dup", func(experiments.Options) (experiments.Result, error) { return nil, nil })
	})
	expectPanic("duplicate ordinal", func() {
		experiments.Define(10, "unique-name-1", "dup ordinal", func(experiments.Options) (experiments.Result, error) { return nil, nil })
	})
	expectPanic("empty name", func() {
		experiments.Define(9998, "", "anonymous", func(experiments.Options) (experiments.Result, error) { return nil, nil })
	})
}
