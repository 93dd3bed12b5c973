package kvstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/variant"
)

// putAllocBudget is the allocation guard of a steady-state MVCC
// overwrite: the measured figure — 3, the transaction handle, the head
// version and the root — plus one.
const putAllocBudget = 4

// overwriteCost preloads keys 256-byte values into a store of the given
// shard count, then reports what one overwrite of a random key costs
// the Go heap: allocations (testing.AllocsPerRun) and bytes.
func overwriteCost(t *testing.T, shards uint64, keys int, tracked bool) (allocs, bytes float64) {
	t.Helper()
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if tracked {
		env.Dev.EnableTracking(nil)
	}
	value := make([]byte, 256)
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("%016d", i))
		if err := s.Put(ks[i], value); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	put := func() {
		i = (i*31 + 7) % keys
		if err := s.Put(ks[i], value); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: every shard has retired a batch and sized its scratch.
	for n := 0; n < 4*keys/10; n++ {
		put()
	}
	return heapCost(2000, put)
}

// heapCost reports what one call of op costs the Go heap, over runs
// calls: allocations (testing.AllocsPerRun) and bytes — the quietest of
// a few rounds: a slice the allocator doubles once in a while is not
// what an operation costs.
func heapCost(runs int, op func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, op)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < runs; n++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs); round == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestPutAllocBudget holds the put path to its allocation budget, on
// the untracked device and on the tracked one the ledger's
// durable_write runs, and to the property the budget rests on: what a
// put allocates does not depend on the shard's bucket count. One shard
// holds all 20 000 keys in 64 times the buckets each of 64 shards has.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const keys = 20000
	for _, tracked := range []bool{false, true} {
		t.Run(fmt.Sprintf("tracked=%v", tracked), func(t *testing.T) {
			allocs, bytes := overwriteCost(t, 64, keys, tracked)
			wideAllocs, wideBytes := overwriteCost(t, 1, keys, tracked)
			t.Logf("64 shards: %.1f allocs, %.0f B per put; 1 shard: %.1f allocs, %.0f B per put",
				allocs, bytes, wideAllocs, wideBytes)
			if allocs > putAllocBudget {
				t.Errorf("an overwrite allocates %.1f times, budget %d", allocs, putAllocBudget)
			}
			if wideBytes > bytes*1.05 || wideBytes < bytes*0.95 {
				t.Errorf("bytes per put depend on the bucket count: %.0f B with 64 shards, %.0f B with one", bytes, wideBytes)
			}
		})
	}
}
