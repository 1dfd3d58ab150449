package sim

import (
	"bytes"
	"strconv"
	"strings"
)

// Name is a model component's name kept in its parts: a device prefix
// ("core", "pcie"), an optional instance index, and a constant suffix
// (".pll", ".InL0s"). Assembling a machine names dozens of wires,
// channels and PLLs; keeping the parts instead of concatenating them
// builds no string until a name is read. The zero Name is empty.
type Name struct {
	prefix string
	index  int // instance index + 1; 0 means none
	suffix string
}

// Named returns the name s, with no index.
func Named(s string) Name { return Name{prefix: s} }

// Indexed returns the name of instance i (≥ 0) of a device family:
// Indexed("core", 3) reads "core3".
func Indexed(prefix string, i int) Name {
	if i < 0 {
		panic("sim: negative name index")
	}
	return Name{prefix: prefix, index: i + 1}
}

// With returns n with suffix appended: Indexed("pcie", 0).With(".pll")
// reads "pcie0.pll". Suffixes are constants, so giving one to a name
// that has none builds nothing.
func (n Name) With(suffix string) Name {
	n.suffix += suffix
	return n
}

// String composes the name.
func (n Name) String() string {
	if n.index == 0 && n.suffix == "" {
		return n.prefix
	}
	return string(n.appendTo(nil))
}

// Is reports whether the name reads s, without building a string.
func (n Name) Is(s string) bool {
	if n.len() != len(s) || !strings.HasPrefix(s, n.prefix) {
		return false
	}
	var buf [64]byte
	return string(n.appendTo(buf[:0])) == s
}

// Equal reports whether n and m read the same, however their parts
// split it, without building a string.
func (n Name) Equal(m Name) bool {
	if n.prefix == m.prefix && n.suffix == m.suffix {
		return n.index == m.index // same family: the index decides
	}
	// Prefixes that part ways part the names there.
	if k := min(len(n.prefix), len(m.prefix)); n.prefix[:k] != m.prefix[:k] || n.len() != m.len() {
		return false
	}
	var a, b [64]byte
	return bytes.Equal(n.appendTo(a[:0]), m.appendTo(b[:0]))
}

// appendTo appends the composed name to dst.
func (n Name) appendTo(dst []byte) []byte {
	dst = append(dst, n.prefix...)
	if n.index > 0 {
		dst = strconv.AppendInt(dst, int64(n.index-1), 10)
	}
	return append(dst, n.suffix...)
}

// len returns the length of the composed name.
func (n Name) len() int {
	l := len(n.prefix) + len(n.suffix)
	if n.index > 0 {
		l++
		for i := n.index - 1; i >= 10; i /= 10 {
			l++
		}
	}
	return l
}
