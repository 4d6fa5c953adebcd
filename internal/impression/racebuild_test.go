//go:build race

package impression

// The race detector makes sync.Pool drop a share of Puts, so pooled
// scratch allocates by design and allocation gates cannot hold.
func init() { raceEnabled = true }
