package replay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"agilepkgc/internal/sim"
)

// FuzzTraceDecode is the decoder's adversarial gate: whatever bytes
// arrive — truncated files, corrupt checksums, out-of-order timestamps,
// length-field lies — Decode must either succeed or return a located
// *FormatError. It must never panic, never over-read (the input is all
// there is) and, on success, hand back records that re-encode to an
// equivalent trace (round-trip closure). The CI fuzz job picks this
// target up by name discovery (go test -list '^Fuzz'). ReadHeader must
// also return exactly NewReader's header or error on every input.
func FuzzTraceDecode(f *testing.F) {
	// Seed corpus: real tracegen-shaped output plus targeted mutations
	// of every region (magic, lengths, counts, timestamps, checksum).
	valid, _ := fuzzSeedTrace(f, []Record{
		{TS: 0, Service: 16 * sim.Microsecond, Conn: 0, Mem: 4},
		{TS: 10 * sim.Microsecond, Service: 12 * sim.Microsecond, Conn: 3, Mem: 4},
		{TS: 10 * sim.Microsecond, Service: 50 * sim.Microsecond, Conn: 7, Mem: 4},
		{TS: 500 * sim.Microsecond, Service: 9 * sim.Microsecond, Conn: 1, Mem: 4},
	})
	empty, _ := fuzzSeedTrace(f, nil)
	f.Add(valid)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("APCTRACE"))
	f.Add(valid[:headerSize/2])
	f.Add(valid[:headerSize+1])
	for _, off := range []int{0, 8, 12, 16, 24, 32, 40, 56, 64, headerSize, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), valid...), 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The preflight's header-only decode and the streaming reader
		// agree on every input: the same header or the same error.
		hh, herr := ReadHeader(bytes.NewReader(data))
		var rh Header
		rd, rerr := NewReader(bytes.NewReader(data))
		if rerr == nil {
			rh = rd.Header()
		}
		if (herr == nil) != (rerr == nil) || herr != nil && herr.Error() != rerr.Error() || hh != rh {
			t.Fatalf("ReadHeader (%+v, %v) and NewReader (%+v, %v) disagree", hh, herr, rh, rerr)
		}
		hdr, recs, err := Decode(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Decode error %v is not a *FormatError", err)
			}
			if fe.Offset < 0 || fe.Offset > int64(len(data)) {
				t.Fatalf("located offset %d outside the %d-byte input", fe.Offset, len(data))
			}
			return
		}
		// Accepted input: the decoded records must satisfy the format's
		// invariants and re-encode to a trace that decodes identically.
		if uint64(len(recs)) != hdr.Count {
			t.Fatalf("decoded %d records, header declares %d", len(recs), hdr.Count)
		}
		for i, rec := range recs {
			if rec.TS < 0 || rec.Service < 0 {
				t.Fatalf("record %d: negative time %d/%d", i, rec.TS, rec.Service)
			}
			if i > 0 && rec.TS < recs[i-1].TS {
				t.Fatalf("record %d: accepted out-of-order timestamp", i)
			}
		}
		var buf MemBuffer
		w, err := NewWriter(&buf, Meta{
			Name:        hdr.Name,
			MeanQPS:     hdr.MeanQPS,
			ServiceMean: hdr.ServiceMean,
			Connections: hdr.Connections,
			MemAccesses: hdr.MemAccesses,
		})
		if err != nil {
			t.Fatalf("accepted header does not re-encode: %v", err)
		}
		for i, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatalf("accepted record %d does not re-encode: %v", i, err)
			}
		}
		if _, err := w.Close(); err != nil {
			t.Fatalf("re-encode close: %v", err)
		}
		hdr2, recs2, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if hdr2 != hdr {
			t.Fatalf("round trip changed the header: %+v vs %+v", hdr2, hdr)
		}
		for i := range recs {
			if recs2[i] != recs[i] {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, recs2[i], recs[i])
			}
		}
	})
}

// fuzzSeedTrace builds a seed-corpus trace through the real writer.
func fuzzSeedTrace(f *testing.F, recs []Record) ([]byte, Header) {
	f.Helper()
	var buf MemBuffer
	w, err := NewWriter(&buf, Meta{
		Name: "fuzz-seed", MeanQPS: 40000, ServiceMean: 16e-6,
		Connections: 8, MemAccesses: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	hdr, err := w.Close()
	if err != nil {
		f.Fatal(err)
	}
	return buf.Bytes(), hdr
}

// TestFuzzSeedsDecode keeps the corpus honest outside fuzzing mode: the
// valid seed decodes, and a Reader over a stream that cannot seek past
// what it has (bytes.Reader over the exact input) proves the decoder
// never demands bytes beyond the failing field.
func TestFuzzSeedsDecode(t *testing.T) {
	var buf MemBuffer
	w, err := NewWriter(&buf, Meta{Name: "seed", MeanQPS: 1, ServiceMean: 1e-6, Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{TS: 5, Service: 7, Conn: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := Decode(data); err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	// Every truncation point must produce a located error, not a panic
	// or an over-read.
	for n := 0; n < len(data); n++ {
		_, _, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", n, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: error %v is not a *FormatError", n, err)
		}
	}
	// The reader consumes only the declared bytes even when more are
	// available to stream.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}
