package replay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"io"
	"math"

	"agilepkgc/internal/sim"
)

// readerBufSize is the bufio window — the bounded read-ahead of the
// streaming path. One window holds ~2730 records; the reader never
// materializes more of the file than this.
const readerBufSize = 64 << 10

// windowBytes is the largest run of whole records one window holds.
const windowBytes = readerBufSize / RecordSize * RecordSize

// Reader streams records out of a trace. It validates the header on
// construction, decodes records in place from the bufio window (Peek
// never copies, Next copies 24 bytes into a stack value), enforces the
// ordering contract (non-decreasing timestamps) incrementally, and
// verifies the record count, checksum and absence of trailing bytes
// when the stream ends. Every failure is a located *FormatError; the
// reader never panics and never reads past the failing field.
//
// Records are decoded out of one Peek of up to a window of whole
// records. The checksum folds each window's consumed records in one
// call when the window is released (at the next refill or at the end
// of the stream): CRC64 takes its slicing-by-8 path only for inputs of
// 64 bytes or more, so a per-record update would run its byte loop.
//
// Rewind seeks back to the first record, which is what looping replay
// and sweep-point reuse are built on; it reuses the bufio window, so a
// rewound reader allocates nothing.
type Reader struct {
	src io.ReadSeeker
	br  *bufio.Reader
	hdr Header

	dataOff int64    // byte offset of record 0
	read    uint64   // records consumed
	crc     uint64   // checksum over the records consumed before win
	prevTS  sim.Time // ordering check
	done    bool     // end-of-stream reached and verified

	// win is the current window: whole records peeked from br, whose
	// first pos bytes are consumed but not yet checksummed or
	// discarded. br's read position is win's first byte, and no other
	// br call is made while win is live.
	win []byte
	pos int
}

// NewReader decodes and validates the header and positions the stream
// at the first record.
func NewReader(src io.ReadSeeker) (*Reader, error) {
	r := &Reader{src: src, br: bufio.NewReaderSize(src, readerBufSize)}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

// readHeader decodes the fixed header and the name that follows it.
func (r *Reader) readHeader() error {
	var h [headerSize]byte
	if _, err := io.ReadFull(r.br, h[:]); err != nil {
		return headerErr(0, "truncated header: %v", err)
	}
	if !bytes.Equal(h[0:8], []byte(Magic)) {
		return headerErr(0, "bad magic %q (want %q)", h[0:8], Magic)
	}
	le := binary.LittleEndian
	if v := le.Uint32(h[8:12]); v != Version {
		return headerErr(8, "unsupported version %d (want %d)", v, Version)
	}
	nameLen := le.Uint32(h[12:16])
	if nameLen == 0 || nameLen > maxNameLen {
		return headerErr(12, "name length %d outside [1, %d]", nameLen, maxNameLen)
	}
	count := le.Uint64(h[16:24])
	first, last := le.Uint64(h[24:32]), le.Uint64(h[32:40])
	if !validTS(first) || !validTS(last) {
		return headerErr(24, "timestamp range does not fit a signed time")
	}
	if last < first {
		return headerErr(32, "last timestamp %d before first %d", last, first)
	}
	if count == 0 && (first != 0 || last != 0) {
		return headerErr(16, "empty trace with a non-zero timestamp range")
	}
	if count > math.MaxInt64/RecordSize {
		return headerErr(16, "record count %d implies an impossible file size", count)
	}
	meanQPS := math.Float64frombits(le.Uint64(h[40:48]))
	serviceMean := math.Float64frombits(le.Uint64(h[48:56]))
	if math.IsNaN(meanQPS) || math.IsInf(meanQPS, 0) || meanQPS < 0 {
		return headerErr(40, "mean QPS %g is not a finite non-negative rate", meanQPS)
	}
	if math.IsNaN(serviceMean) || math.IsInf(serviceMean, 0) || serviceMean < 0 {
		return headerErr(48, "service mean %g is not a finite non-negative time", serviceMean)
	}
	conns := le.Uint32(h[56:60])
	if conns == 0 || conns > math.MaxInt32 {
		return headerErr(56, "connection count %d outside [1, %d]", conns, math.MaxInt32)
	}
	mem := le.Uint32(h[60:64])
	if mem > math.MaxInt32 {
		return headerErr(60, "mem-access count %d overflows int", mem)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return headerErr(headerSize, "truncated name (declared %d bytes): %v", nameLen, err)
	}
	r.hdr = Header{
		Name:        string(name),
		Count:       count,
		FirstTS:     sim.Time(first),
		LastTS:      sim.Time(last),
		MeanQPS:     meanQPS,
		ServiceMean: serviceMean,
		Connections: int(conns),
		MemAccesses: int(mem),
		CRC:         le.Uint64(h[64:72]),
	}
	r.dataOff = int64(headerSize) + int64(nameLen)
	return nil
}

// Header returns the validated header.
func (r *Reader) Header() Header { return r.hdr }

// Read returns how many records have been consumed since the last
// Rewind (or construction).
func (r *Reader) Read() uint64 { return r.read }

// offset returns the byte offset of the next (unconsumed) record.
//
//apcvet:noalloc
func (r *Reader) offset() int64 { return r.dataOff + int64(r.read)*RecordSize }

// Peek decodes the next record without consuming it. At the end of the
// stream it verifies the count, the checksum and that no trailing
// bytes follow, then returns io.EOF (and keeps returning it). Any
// malformation returns a located *FormatError.
//
//apcvet:noalloc
func (r *Reader) Peek() (Record, error) {
	if r.done {
		return Record{}, io.EOF
	}
	if r.read == r.hdr.Count {
		return Record{}, r.finish() //apcvet:alloc end-of-stream verification: once per trace, not per record
	}
	if r.pos == len(r.win) {
		if err := r.refill(); err != nil {
			return Record{}, err
		}
	}
	return r.decode(r.win[r.pos : r.pos+RecordSize])
}

// Next consumes and returns the next record; its bytes join the
// window's checksum run. Errors are exactly Peek's.
//
//apcvet:noalloc
func (r *Reader) Next() (Record, error) {
	rec, err := r.Peek()
	if err != nil {
		return Record{}, err
	}
	r.pos += RecordSize
	r.prevTS = rec.TS
	r.read++
	return rec, nil
}

// release folds the window's consumed records into the checksum in one
// call and discards them from br, ending the window.
//
//apcvet:noalloc
func (r *Reader) release() {
	if r.pos > 0 {
		r.crc = crc64.Update(r.crc, crcTable, r.win[:r.pos])
		r.br.Discard(r.pos) // cannot fail: the bytes are buffered
	}
	r.win, r.pos = nil, 0
}

// refill releases the current window and peeks the next one: as many
// whole records as the buffer holds, up to the declared count. A
// stream that ends inside the next record is a truncated trace.
//
//apcvet:noalloc
func (r *Reader) refill() error {
	r.release()
	n := windowBytes
	if left := (r.hdr.Count - r.read) * RecordSize; left < uint64(n) {
		n = int(left)
	}
	buf, err := r.br.Peek(n)
	if whole := len(buf) / RecordSize * RecordSize; whole > 0 {
		r.win = buf[:whole]
		return nil
	}
	//apcvet:alloc cold error path: a truncated trace aborts the run
	return recordErr(r.offset(), int64(r.read), "truncated record (%d of %d declared): %v", r.read, r.hdr.Count, err)
}

// decode validates one record's fields against the header and the
// ordering contract.
//
//apcvet:noalloc
func (r *Reader) decode(buf []byte) (Record, error) {
	le := binary.LittleEndian
	off, idx := r.offset(), int64(r.read)
	ts := le.Uint64(buf[0:8])
	if !validTS(ts) {
		//apcvet:alloc cold error path: a corrupt trace aborts the run
		return Record{}, recordErr(off, idx, "timestamp does not fit a signed time")
	}
	svc := le.Uint64(buf[8:16])
	if !validTS(svc) {
		//apcvet:alloc cold error path: a corrupt trace aborts the run
		return Record{}, recordErr(off+8, idx, "service time does not fit a signed duration")
	}
	rec := Record{
		TS:      sim.Time(ts),
		Service: sim.Duration(svc),
		Conn:    le.Uint32(buf[16:20]),
		Mem:     le.Uint32(buf[20:24]),
	}
	if r.read == 0 {
		if rec.TS != r.hdr.FirstTS {
			//apcvet:alloc cold error path: a corrupt trace aborts the run
			return Record{}, recordErr(off, idx, "first timestamp %d != header first %d", rec.TS, r.hdr.FirstTS)
		}
	} else if rec.TS < r.prevTS {
		//apcvet:alloc cold error path: a corrupt trace aborts the run
		return Record{}, recordErr(off, idx, "timestamp %d before predecessor %d — records must be ordered", rec.TS, r.prevTS)
	}
	if rec.TS > r.hdr.LastTS {
		//apcvet:alloc cold error path: a corrupt trace aborts the run
		return Record{}, recordErr(off, idx, "timestamp %d after header last %d", rec.TS, r.hdr.LastTS)
	}
	if int64(rec.Conn) >= int64(r.hdr.Connections) {
		//apcvet:alloc cold error path: a corrupt trace aborts the run
		return Record{}, recordErr(off+16, idx, "connection %d outside the header's %d", rec.Conn, r.hdr.Connections)
	}
	return rec, nil
}

// finish runs the end-of-stream verification: the declared count was
// consumed, the checksum matches, the last timestamp matches the
// header, and nothing trails the records.
func (r *Reader) finish() error {
	r.release()
	off := r.offset()
	if r.read > 0 && r.prevTS != r.hdr.LastTS {
		return recordErr(off, int64(r.read)-1, "last timestamp %d != header last %d", r.prevTS, r.hdr.LastTS)
	}
	if r.crc != r.hdr.CRC {
		return recordErr(off, int64(r.read)-1, "checksum %#x != header %#x — corrupt records", r.crc, r.hdr.CRC)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		if err != nil {
			return recordErr(off, int64(r.read), "read past records: %v", err)
		}
		return recordErr(off, int64(r.read), "trailing bytes after the declared %d records", r.hdr.Count)
	}
	r.done = true
	return io.EOF
}

// Rewind repositions the stream at record 0 and resets the incremental
// verification state, reusing the bufio window. Looping replay and
// sweep-point reuse call it; the rewound reader is indistinguishable
// from a fresh NewReader on the same source.
func (r *Reader) Rewind() error {
	if _, err := r.src.Seek(r.dataOff, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.src)
	r.read, r.crc, r.prevTS, r.done = 0, 0, 0, false
	r.win, r.pos = nil, 0
	return nil
}

// Decode parses a complete in-memory trace: header plus every record,
// with the same validation the streaming reader applies (including the
// final checksum/trailing-byte check). It is the convenience entry the
// fuzz target and the dump tool drive.
func Decode(data []byte) (Header, []Record, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, err
	}
	var recs []Record
	if r.hdr.Count > 0 && r.hdr.Count < 1<<20 {
		recs = make([]Record, 0, r.hdr.Count)
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.hdr, recs, nil
		}
		if err != nil {
			return r.hdr, recs, err
		}
		recs = append(recs, rec)
	}
}
