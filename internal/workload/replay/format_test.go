package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"agilepkgc/internal/sim"
)

var testMeta = Meta{
	Name:        "unit-trace",
	MeanQPS:     12345.5,
	ServiceMean: 16e-6,
	Connections: 8,
	MemAccesses: 4,
}

// buildTrace writes the records into an in-memory trace and returns its
// bytes plus the completed header.
func buildTrace(t *testing.T, meta Meta, recs []Record) ([]byte, Header) {
	t.Helper()
	var buf MemBuffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append record %d: %v", i, err)
		}
	}
	hdr, err := w.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), hdr
}

// testRecords exercises the interesting shapes: a zero first timestamp,
// equal timestamps (tie-break territory) and a gap.
func testRecords() []Record {
	return []Record{
		{TS: 0, Service: 16 * sim.Microsecond, Conn: 0, Mem: 4},
		{TS: 10 * sim.Microsecond, Service: 12 * sim.Microsecond, Conn: 3, Mem: 4},
		{TS: 10 * sim.Microsecond, Service: 50 * sim.Microsecond, Conn: 7, Mem: 4},
		{TS: 500 * sim.Microsecond, Service: 9 * sim.Microsecond, Conn: 1, Mem: 4},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	recs := testRecords()
	data, hdr := buildTrace(t, testMeta, recs)

	if hdr.Name != testMeta.Name || hdr.Count != uint64(len(recs)) ||
		hdr.FirstTS != recs[0].TS || hdr.LastTS != recs[len(recs)-1].TS ||
		hdr.MeanQPS != testMeta.MeanQPS || hdr.ServiceMean != testMeta.ServiceMean ||
		hdr.Connections != testMeta.Connections || hdr.MemAccesses != testMeta.MemAccesses {
		t.Fatalf("writer header %+v does not reflect meta %+v and records", hdr, testMeta)
	}

	gotHdr, gotRecs, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotHdr != hdr {
		t.Errorf("decoded header %+v != written %+v", gotHdr, hdr)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, gotRecs[i], recs[i])
		}
	}
}

func TestReaderRewind(t *testing.T) {
	data, _ := buildTrace(t, testMeta, testRecords())
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	drain := func() []Record {
		var out []Record
		for {
			rec, err := r.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			out = append(out, rec)
		}
	}
	first := drain()
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
	if err := r.Rewind(); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	if r.Read() != 0 {
		t.Fatalf("Read() after Rewind = %d, want 0", r.Read())
	}
	second := drain()
	if len(first) != len(second) {
		t.Fatalf("rewound read returned %d records, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("record %d changed across Rewind: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestWriterRejects(t *testing.T) {
	var buf MemBuffer
	if _, err := NewWriter(&buf, Meta{Name: "", Connections: 1}); err == nil {
		t.Error("NewWriter accepted an empty name")
	}
	if _, err := NewWriter(&buf, Meta{Name: strings.Repeat("x", maxNameLen+1), Connections: 1}); err == nil {
		t.Error("NewWriter accepted an oversized name")
	}
	if _, err := NewWriter(&buf, Meta{Name: "x", Connections: 0}); err == nil {
		t.Error("NewWriter accepted zero connections")
	}
	if _, err := NewWriter(&buf, Meta{Name: "x", Connections: 1, MemAccesses: -1}); err == nil {
		t.Error("NewWriter accepted negative mem accesses")
	}

	w, err := NewWriter(&MemBuffer{}, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{TS: -1}); err == nil {
		t.Error("Append accepted a negative timestamp")
	}
	if err := w.Append(Record{TS: 10, Service: -1}); err == nil {
		t.Error("Append accepted a negative service time")
	}
	if err := w.Append(Record{TS: 10}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(Record{TS: 9}); err == nil {
		t.Error("Append accepted an out-of-order timestamp")
	}
	if _, err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(Record{TS: 11}); err == nil {
		t.Error("Append succeeded on a closed writer")
	}
	if _, err := w.Close(); err == nil {
		t.Error("double Close succeeded")
	}
}

// corrupt returns a copy of data with the byte at off XORed.
func corrupt(data []byte, off int, bit byte) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= bit
	return out
}

// patchU64 returns a copy with a little-endian u64 overwritten at off.
func patchU64(data []byte, off int, v uint64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// TestDecodeRejectsCorruption is the decoder's failure-mode table:
// every class of malformation FuzzTraceDecode probes randomly is pinned
// here deterministically, with the located record index checked — a
// header failure reports record −1, a record failure reports which one.
func TestDecodeRejectsCorruption(t *testing.T) {
	data, hdr := buildTrace(t, testMeta, testRecords())
	nameLen := len(testMeta.Name)
	recOff := func(i int) int { return headerSize + nameLen + i*RecordSize }

	cases := []struct {
		name    string
		data    []byte
		record  int64 // expected FormatError.Record
		msgPart string
	}{
		{"empty file", nil, -1, "truncated header"},
		{"truncated header", data[:40], -1, "truncated header"},
		{"bad magic", corrupt(data, 0, 0xff), -1, "bad magic"},
		{"bad version", corrupt(data, 8, 0xff), -1, "version"},
		{"zero name length", patchU64(data, 12, uint64(binary.LittleEndian.Uint32(data[16:24]))<<32), -1, "name length"},
		{"name length lie", corrupt(data, 14, 0x7f), -1, "name length"},
		{"truncated name", data[:headerSize+2], -1, "truncated name"},
		{"count overdeclared", patchU64(data, 16, hdr.Count+1), 4, "truncated record"},
		{"count underdeclared", patchU64(data, 16, hdr.Count-1), int64(hdr.Count) - 2, "last timestamp"},
		{"timestamp range inverted", patchU64(data, 24, uint64(hdr.LastTS)+1), -1, "before first"},
		{"negative first timestamp", patchU64(data, 24, 1<<63), -1, "signed time"},
		{"nan mean qps", patchU64(data, 40, 0x7ff8000000000001), -1, "mean QPS"},
		{"zero connections", patchU64(data, 56, uint64(binary.LittleEndian.Uint32(data[60:64]))<<32), -1, "connection count"},
		{"record timestamp out of order", patchU64(data, recOff(3), 5000), 3, "before predecessor"},
		{"record timestamp negative", patchU64(data, recOff(1), 1<<63), 1, "signed time"},
		{"record past header last", patchU64(data, recOff(3), uint64(hdr.LastTS)+1), 3, "after header last"},
		{"first record != header first", patchU64(data, recOff(0), 5), 0, "header first"},
		{"connection out of range", corrupt(data, recOff(1)+16, 0x80), 1, "connection"},
		{"service corrupted (crc)", corrupt(data, recOff(2)+8, 0x01), int64(hdr.Count) - 1, "checksum"},
		{"trailing bytes", append(append([]byte(nil), data...), 0xAA), int64(hdr.Count), "trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Decode(c.data)
			if err == nil {
				t.Fatal("Decode accepted the corruption")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FormatError", err)
			}
			if fe.Record != c.record {
				t.Errorf("located record %d, want %d (err: %v)", fe.Record, c.record, err)
			}
			if !strings.Contains(err.Error(), c.msgPart) {
				t.Errorf("error %q does not mention %q", err, c.msgPart)
			}
		})
	}
	// ReadHeader is the only header decoder: every header case fails
	// through it with NewReader's exact text and offset.
	for _, c := range cases {
		if c.record >= 0 {
			continue
		}
		t.Run("ReadHeader/"+c.name, func(t *testing.T) {
			_, rerr := NewReader(bytes.NewReader(c.data))
			_, herr := ReadHeader(bytes.NewReader(c.data))
			var rfe, hfe *FormatError
			if !errors.As(rerr, &rfe) || !errors.As(herr, &hfe) {
				t.Fatalf("NewReader error %v / ReadHeader error %v: want two *FormatErrors", rerr, herr)
			}
			if *hfe != *rfe {
				t.Errorf("ReadHeader %+v, NewReader %+v", *hfe, *rfe)
			}
		})
	}
}

// countingReader counts the bytes its caller consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadHeaderConsumesOnlyHeader pins the preflight's read budget:
// ReadHeader takes the fixed header and the declared name and not one
// byte of the records behind them.
func TestReadHeaderConsumesOnlyHeader(t *testing.T) {
	data, hdr := buildTrace(t, testMeta, testRecords())
	cr := &countingReader{r: bytes.NewReader(data)}
	got, err := ReadHeader(cr)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Errorf("ReadHeader = %+v, want %+v", got, hdr)
	}
	if want := headerSize + len(testMeta.Name); cr.n != want {
		t.Errorf("ReadHeader consumed %d bytes, want %d", cr.n, want)
	}
}

func TestDecodeEmptyTrace(t *testing.T) {
	data, hdr := buildTrace(t, testMeta, nil)
	gotHdr, recs, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotHdr != hdr || hdr.Count != 0 || len(recs) != 0 {
		t.Errorf("empty trace decoded to %+v with %d records", gotHdr, len(recs))
	}
}

func TestMemBufferSeek(t *testing.T) {
	var b MemBuffer
	if _, err := b.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if pos, _ := b.Seek(2, io.SeekStart); pos != 2 {
		t.Errorf("SeekStart pos %d", pos)
	}
	if pos, _ := b.Seek(3, io.SeekCurrent); pos != 5 {
		t.Errorf("SeekCurrent pos %d", pos)
	}
	if pos, _ := b.Seek(-1, io.SeekEnd); pos != 9 {
		t.Errorf("SeekEnd pos %d", pos)
	}
	var p [1]byte
	if _, err := b.Read(p[:]); err != nil || p[0] != '9' {
		t.Errorf("Read after seek = %q, %v", p[0], err)
	}
	if _, err := b.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
	if _, err := b.Seek(0, 99); err == nil {
		t.Error("bad whence accepted")
	}
	// Overwrite in the middle, then extend past the end.
	if _, err := b.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Bytes()); got != "01234567abcd" {
		t.Errorf("buffer = %q", got)
	}
}

// TestHeaderSpecPanics pins the trace-backed spec's guard rails: the
// placeholder distributions expose the recorded means but refuse to be
// sampled, so a trace spec can never silently feed the synthetic
// generator.
func TestHeaderSpecPanics(t *testing.T) {
	_, hdr := buildTrace(t, testMeta, testRecords())
	spec := hdr.Spec()
	if spec.MeanQPS() != testMeta.MeanQPS || spec.Service.Mean() != testMeta.ServiceMean {
		t.Errorf("trace spec means %g/%g do not match header %g/%g",
			spec.MeanQPS(), spec.Service.Mean(), testMeta.MeanQPS, testMeta.ServiceMean)
	}
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("Arrivals.NextGap", func() { spec.Arrivals.NextGap(nil, nil) })
	expectPanic("Service.Sample", func() { spec.Service.Sample(nil) })
}
