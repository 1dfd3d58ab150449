package sim

import "testing"

func TestNameComposesOnRead(t *testing.T) {
	for _, c := range []struct {
		n    Name
		want string
	}{
		{Name{}, ""},
		{Named("clm"), "clm"},
		{Named("clm").With(".pll"), "clm.pll"},
		{Indexed("core", 3), "core3"},
		{Indexed("core", 12).With(".InCC1"), "core12.InCC1"},
		{Indexed("pcie", 0).With(".pll"), "pcie0.pll"},
		{Named("x").With(".a").With(".b"), "x.a.b"},
	} {
		if got := c.n.String(); got != c.want {
			t.Errorf("%#v reads %q, want %q", c.n, got, c.want)
		}
		if !c.n.Is(c.want) {
			t.Errorf("%q.Is(%q) = false", c.want, c.want)
		}
		for _, other := range []string{c.want + "0", "x" + c.want, c.want + ".pll"} {
			if c.n.Is(other) {
				t.Errorf("%q.Is(%q) = true", c.want, other)
			}
		}
		if !c.n.Equal(Named(c.want)) || !Named(c.want).Equal(c.n) {
			t.Errorf("%q does not equal its plain spelling", c.want)
		}
	}
	if Indexed("core", 3).Is("core") || Indexed("core", 3).Equal(Indexed("core", 30)) {
		t.Error("an index must match whole")
	}
}

func TestNameBuildsNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		n := Indexed("upi", 1).With(".InL0s")
		if !n.Is("upi1.InL0s") || !n.Equal(Named("upi1.InL0s")) {
			t.Fatal("name mismatch")
		}
	})
	if allocs != 0 {
		t.Errorf("building and matching a name allocated %v times, want 0", allocs)
	}
}

func TestNegativeNameIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative index did not panic")
		}
	}()
	Indexed("core", -1)
}
