//go:build race

package interp

// The race detector instruments allocations; the allocation guards
// skip under it.
func init() { raceEnabled = true }
