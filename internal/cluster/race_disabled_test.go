//go:build !race

package cluster

// raceEnabled reports whether the test binary runs under the race detector,
// whose runtime drops a share of sync.Pool puts.
const raceEnabled = false
