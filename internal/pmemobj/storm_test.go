package pmemobj

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// stormRng is a per-goroutine xorshift so the storm tests need no
// locking around randomness.
type stormRng uint64

func (x *stormRng) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = stormRng(v)
	return v
}

// stormObj is one live object owned by a storm worker: the oid plus the
// stamp written into its first payload word.
type stormObj struct {
	oid   Oid
	stamp uint64
}

// TestConcurrentStormInvariants hammers the allocator from P goroutines
// with a random mix of atomic alloc/free/realloc and transactional
// alloc, then checks the global invariants: no block is handed to two
// owners (stamps and walk offsets are unique), no block is lost (the
// walk tiles exactly the union of live sets and Stats agrees), and a
// reopen rebuilds the same picture.
//
// The subtest keeps the name of the bitmap allocator, which is now the
// only allocator.
func TestConcurrentStormInvariants(t *testing.T) {
	t.Run("bitmap", stormInvariants)
}

func stormInvariants(t *testing.T) {
	const (
		workers = 8
		steps   = 300
		window  = 16
	)
	p, dev := newTestPool(t, Config{Geometry: Geometry{NLanes: workers}})

	live := make([]map[uint64]stormObj, workers) // payload off -> obj
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		live[w] = make(map[uint64]stormObj)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stormRng(w*2654435761 + 1)
			mine := live[w]
			pick := func() (stormObj, bool) {
				for _, o := range mine {
					return o, true
				}
				return stormObj{}, false
			}
			check := func(o stormObj) bool {
				if got := dev.ReadU64(o.oid.Off); got != o.stamp {
					t.Errorf("worker %d: object at %#x stamped %#x, read %#x",
						w, o.oid.Off, o.stamp, got)
					return false
				}
				return true
			}
			for i := 0; i < steps; i++ {
				switch op := rng.next() % 100; {
				case op < 45 && len(mine) < window: // atomic alloc
					size := 32 + rng.next()%993
					oid, err := p.Alloc(size)
					if err != nil {
						t.Errorf("worker %d: Alloc(%d): %v", w, size, err)
						return
					}
					stamp := uint64(w)<<56 | rng.next()>>8
					dev.WriteU64(oid.Off, stamp)
					dev.Persist(oid.Off, 8)
					mine[oid.Off] = stormObj{oid, stamp}
				case op < 65: // atomic free
					o, ok := pick()
					if !ok {
						continue
					}
					if !check(o) {
						return
					}
					if err := p.Free(o.oid); err != nil {
						t.Errorf("worker %d: Free: %v", w, err)
						return
					}
					delete(mine, o.oid.Off)
				case op < 80: // atomic realloc
					o, ok := pick()
					if !ok {
						continue
					}
					if !check(o) {
						return
					}
					size := 32 + rng.next()%1993
					oid, err := p.Realloc(o.oid, size)
					if err != nil {
						t.Errorf("worker %d: Realloc: %v", w, err)
						return
					}
					delete(mine, o.oid.Off)
					mine[oid.Off] = stormObj{oid, o.stamp} // stamp moves with the payload
				default: // transactional alloc, half committed
					if len(mine) >= window {
						continue
					}
					tx := p.Begin()
					size := 64 + rng.next()%961
					oid, err := tx.Alloc(size)
					if err != nil {
						t.Errorf("worker %d: tx.Alloc: %v", w, err)
						_ = tx.Abort()
						return
					}
					stamp := uint64(w)<<56 | rng.next()>>8
					dev.WriteU64(oid.Off, stamp)
					if rng.next()%2 == 0 {
						if err := tx.Commit(); err != nil {
							t.Errorf("worker %d: Commit: %v", w, err)
							return
						}
						mine[oid.Off] = stormObj{oid, stamp}
					} else if err := tx.Abort(); err != nil {
						t.Errorf("worker %d: Abort: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	verify := func(q *Pool, when string) map[uint64]uint64 {
		walked := map[uint64]uint64{} // payload off -> size
		if err := q.ForEachAllocated(func(off, size uint64) error {
			if _, dup := walked[off]; dup {
				return fmt.Errorf("offset %#x walked twice", off)
			}
			walked[off] = size
			return nil
		}); err != nil {
			t.Fatalf("%s: walk: %v", when, err)
		}
		total := 0
		for w := 0; w < workers; w++ {
			for off, o := range live[w] {
				total++
				if _, ok := walked[off]; !ok {
					t.Errorf("%s: live object at %#x missing from walk", when, off)
				}
				if got := dev.ReadU64(off); got != o.stamp {
					t.Errorf("%s: object at %#x stamped %#x, read %#x", when, off, o.stamp, got)
				}
			}
		}
		if len(walked) != total {
			t.Errorf("%s: walk found %d objects, workers own %d", when, len(walked), total)
		}
		if got := q.Stats().AllocatedObjects; got != uint64(total) {
			t.Errorf("%s: Stats.AllocatedObjects = %d, want %d", when, got, total)
		}
		return walked
	}
	before := verify(p, "post-storm")
	after := verify(reopen(t, dev), "post-reopen")
	if len(before) != len(after) {
		t.Errorf("reopen changed object count: %d -> %d", len(before), len(after))
	}
}

// TestConcurrentStormCrashRecovery crashes the device in the middle of
// a concurrent storm: every worker runs a string of committed
// transactions (each publishing its latest object and stamp into a root
// slot), then parks with one more transaction open — dirty slot writes
// and an uncommitted allocation in flight. After the crash, recovery
// must roll every parked transaction back and the pool must contain
// exactly the committed oracle.
//
// The subtest keeps the name of the bitmap allocator, which is now the
// only allocator.
func TestConcurrentStormCrashRecovery(t *testing.T) {
	t.Run("bitmap", stormCrashRecovery)
}

func stormCrashRecovery(t *testing.T) {
	const (
		workers = 8
		commits = 20
	)
	p, dev := newTestPool(t, Config{Geometry: Geometry{NLanes: workers}})
	root, err := p.Root(uint64(workers) * 32)
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	dev.EnableTracking(nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := root.Off + uint64(w)*32
			var prev Oid
			for i := 0; i < commits; i++ {
				tx := p.Begin()
				if err := tx.AddRange(slot, 16); err != nil {
					t.Errorf("worker %d: AddRange: %v", w, err)
					_ = tx.Abort()
					return
				}
				oid, err := tx.Alloc(64)
				if err != nil {
					t.Errorf("worker %d: tx.Alloc: %v", w, err)
					_ = tx.Abort()
					return
				}
				stamp := uint64(w)<<32 | uint64(i)
				dev.WriteU64(oid.Off, stamp)
				dev.WriteU64(slot, oid.Off)
				dev.WriteU64(slot+8, stamp)
				if prev != OidNull {
					if err := tx.Free(prev); err != nil {
						t.Errorf("worker %d: tx.Free: %v", w, err)
						_ = tx.Abort()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d: Commit: %v", w, err)
					return
				}
				prev = oid
			}
			// Park with an open transaction: snapshotted slot scribbled
			// over, an allocation reserved, nothing committed.
			tx := p.Begin()
			if err := tx.AddRange(slot, 16); err != nil {
				t.Errorf("worker %d: parked AddRange: %v", w, err)
				return
			}
			dev.WriteU64(slot, 0xdeadbeef)
			dev.WriteU64(slot+8, 0xdeadbeef)
			dev.Persist(slot, 16)
			if _, err := tx.Alloc(128); err != nil {
				t.Errorf("worker %d: parked tx.Alloc: %v", w, err)
			}
			// The transaction is abandoned: the crash below must undo it.
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	dev.DisableTracking()
	q := reopen(t, dev)

	rootOid, err := q.Root(uint64(workers) * 32)
	if err != nil {
		t.Fatalf("Root after crash: %v", err)
	}
	liveOffs := map[uint64]bool{rootOid.Off: true}
	for w := 0; w < workers; w++ {
		slot := rootOid.Off + uint64(w)*32
		off := dev.ReadU64(slot)
		stamp := dev.ReadU64(slot + 8)
		want := uint64(w)<<32 | uint64(commits-1)
		if stamp != want {
			t.Errorf("worker %d: slot stamp %#x, want %#x (rollback lost the oracle)", w, stamp, want)
			continue
		}
		if got := dev.ReadU64(off); got != stamp {
			t.Errorf("worker %d: object at %#x holds %#x, want %#x", w, off, got, stamp)
		}
		liveOffs[off] = true
	}
	walked := 0
	if err := q.ForEachAllocated(func(off, size uint64) error {
		walked++
		if !liveOffs[off] {
			return fmt.Errorf("unexpected survivor at %#x (+%d)", off, size)
		}
		return nil
	}); err != nil {
		t.Fatalf("walk after crash: %v", err)
	}
	if walked != len(liveOffs) {
		t.Errorf("walk found %d objects, want %d (root + one per worker)", walked, len(liveOffs))
	}
	if got := q.Stats().AllocatedObjects; got != uint64(len(liveOffs)) {
		t.Errorf("Stats.AllocatedObjects = %d, want %d", got, len(liveOffs))
	}
}

// BenchmarkScalingAlloc measures atomic alloc/free throughput across a
// goroutine axis, with the sharded arena layout against a single
// serialized arena. The acceptance figure for the concurrency refactor
// is the sharded/goroutines=8 row scaling over goroutines=1 on a
// multi-core runner.
func BenchmarkScalingAlloc(b *testing.B) {
	modes := []struct {
		name   string
		arenas int
	}{
		{"sharded", 0},
		{"1arena", 1},
	}
	for _, m := range modes {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", m.name, g), func(b *testing.B) {
				dev := pmem.NewPool("bench", 1<<26)
				p, err := Create(dev, nil, testBase, Config{
					UUID:     1,
					Geometry: Geometry{NLanes: 16},
					Knobs:    Knobs{NArenas: m.arenas},
				})
				if err != nil {
					b.Fatalf("Create: %v", err)
				}
				per := b.N/g + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				errs := make([]error, g)
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := stormRng(w + 1)
						var live [64]Oid
						n := 0
						for i := 0; i < per; i++ {
							oid, err := p.Alloc(64 + rng.next()%960)
							if err != nil {
								errs[w] = err
								return
							}
							if n == len(live) {
								victim := int(rng.next() % uint64(n))
								if err := p.Free(live[victim]); err != nil {
									errs[w] = err
									return
								}
								n--
								live[victim] = live[n]
							}
							live[n] = oid
							n++
						}
					}(w)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
