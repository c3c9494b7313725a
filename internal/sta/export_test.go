package sta

// Hooks for the external test package: regraph_test.go compares analyzers
// through conformance.Fingerprint, and conformance imports sta.

// CheckFixture is the internal tests' two-design fixture, VtSwapVariant
// their in-place retype target.
var (
	CheckFixture  = checkFixture
	VtSwapVariant = vtSwapVariant
)

// NetCacheLen is the number of nets the per-net delay-calc cache holds.
func (a *Analyzer) NetCacheLen() int { return a.nets.len() }

// LeastAlloc is leastAlloc, with no set-up, for the external package's
// byte tests.
func LeastAlloc(fn func()) uint64 { return leastAlloc(func() {}, fn) }

// AppendedVerts is the number of vertices the per-vertex slabs hold in their
// appended segment: patched in since the last derivation and standing.
func (a *Analyzer) AppendedVerts() int { return len(a.vnd.app) }
