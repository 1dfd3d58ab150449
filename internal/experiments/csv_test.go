package experiments_test

import (
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/sim"
)

// TestWriteCSVTableCells pins the cell contract every CSV table shares:
// fmt's default format per cell (the shortest %g for float64, %d for
// integers, %t for booleans, strings as they are), an empty cell for
// nil and for Opt of a nil pointer, and one Write per line.
//
// Callers convert sim.Duration before it becomes a cell: its String
// method would print "50.000us" where the column holds a number.
// Batching's int64(p.Epoch) and the edge table's float64 µs TTL are the
// two cases; the last column shows what an unconverted one would print.
func TestWriteCSVTableCells(t *testing.T) {
	res := 0.25
	var none *uint64
	rows := [][]any{
		{0.1, 1.0 / 3, 1e21, 2.5e-7, float64(3)},
		{uint64(18446744073709551615), 42, int64(-7), true, "label"},
		{nil, experiments.Opt(&res), experiments.Opt(none), "", false},
		{int64(50 * sim.Microsecond), float64(50*sim.Microsecond) / float64(sim.Microsecond), 0, 1, 50 * sim.Microsecond},
	}
	var b strings.Builder
	if err := experiments.WriteCSVTable(&b, "a,b,c,d,e", rows); err != nil {
		t.Fatal(err)
	}
	want := "a,b,c,d,e\n" +
		"0.1,0.3333333333333333,1e+21,2.5e-07,3\n" +
		"18446744073709551615,42,-7,true,label\n" +
		",0.25,,,false\n" +
		"50000,50,0,1,50.000us\n"
	if got := b.String(); got != want {
		t.Errorf("WriteCSVTable wrote\n%s\nwant\n%s", got, want)
	}
	cw := &writeCounter{}
	if err := experiments.WriteCSVTable(cw, "a,b,c,d,e", rows); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1+len(rows) {
		t.Errorf("WriteCSVTable made %d writes, want one per line (%d)", cw.writes, 1+len(rows))
	}
}
