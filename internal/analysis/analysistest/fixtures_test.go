package analysistest

import (
	"testing"

	"agilepkgc/internal/analysis"
)

// The fixture suites: each directory exercises one pass — violations
// the pass must catch, suppressions it must honor, and clean idioms it
// must leave alone. Each fixture's import path is its module path,
// which has the internal/ element the determinism pass scopes itself
// to.
func TestDeterminismFixture(t *testing.T) {
	Run(t, "testdata/determinism", []*analysis.Analyzer{analysis.Determinism})
}

func TestNoAllocFixture(t *testing.T) {
	Run(t, "testdata/noalloc", []*analysis.Analyzer{analysis.NoAlloc})
}

func TestPoolSafeFixture(t *testing.T) {
	Run(t, "testdata/poolsafe", []*analysis.Analyzer{analysis.PoolSafe})
}

func TestSeededRNGFixture(t *testing.T) {
	Run(t, "testdata/seededrng", []*analysis.Analyzer{analysis.SeededRNG})
}
