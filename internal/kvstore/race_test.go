//go:build race

package kvstore

// The race detector instruments allocations; the allocation guards
// skip under it.
func init() { raceEnabled = true }
