package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The standard library writes CPU profiles but cannot read them, and
// the benchmark imports nothing outside it; this file decodes just
// enough of the pprof protobuf (profile.proto) to attribute each
// sample to the function it was taken in — the flat profile.

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "agilepkgc/internal/"

// flatByLayer decodes a gzipped pprof CPU profile and sums each
// sample's count into the layer of its leaf function (layerOf). It
// returns the per-layer counts and their total.
func flatByLayer(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> string table index
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var haveLoc, haveVal bool
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not; the first is the leaf
					if !haveLoc {
						ids, err := varints(v, b)
						if err != nil || len(ids) == 0 {
							return err
						}
						s.loc, haveLoc = ids[0], true
					}
				case 2: // value; the first is the sample count
					if !haveVal {
						vals, err := varints(v, b)
						if err != nil || len(vals) == 0 {
							return err
						}
						s.count, haveVal = int64(vals[0]), true
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveFn bool
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !haveFn {
						return walkProto(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn, haveFn = v, true
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveFn {
				locFunc[id] = fn
			}
		case 5: // Function
			var id, name uint64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if fn, ok := locFunc[s.loc]; ok {
			if idx, ok := funcName[fn]; ok && idx < uint64(len(strs)) {
				name = strs[idx]
			}
		}
		byLayer[layerOf(name)] += s.count
		total += s.count
	}
	return byLayer, total, nil
}

// layerOf maps a function name from the profile to the layer its
// package belongs to: the simulator's package name (workload/replay is
// "replay"), "math", "runtime" (including the internal runtime
// packages, where map operations live), or "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		l := strings.TrimPrefix(pkg, modulePrefix)
		if l == "workload/replay" {
			l = "replay"
		}
		if slices.Contains(cpuLayers, l) {
			return l
		}
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a qualified function name
// such as "agilepkgc/internal/sim.(*Engine).Run" or
// "agilepkgc/internal/experiments.SweepWith[...].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var errTruncated = errors.New("truncated protobuf")

// walkProto calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field occurrence: a single varint
// (b nil, value in v) or a packed run of them.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
