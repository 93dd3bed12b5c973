package pmemobj

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// TestFbits drives the hierarchical bitmap against a naive boolean
// reference across sizes that exercise every level shape: single word,
// exact word boundary, two levels, three levels.
func TestFbits(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129, 4096, 5000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			f := newFbits(n)
			ref := make([]bool, n)
			rng := rand.New(rand.NewSource(int64(n)))
			refNext := func(i int) int {
				for ; i < n; i++ {
					if ref[i] {
						return i
					}
				}
				return -1
			}
			for step := 0; step < 4000; step++ {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					f.set(i)
					ref[i] = true
				case 1:
					f.clear(i)
					ref[i] = false
				case 2:
					if got, want := f.test(i), ref[i]; got != want {
						t.Fatalf("step %d: test(%d) = %v, want %v", step, i, got, want)
					}
				}
				q := rng.Intn(n)
				if got, want := f.nextSet(q), refNext(q); got != want {
					t.Fatalf("step %d: nextSet(%d) = %d, want %d", step, q, got, want)
				}
			}
			if got, want := f.nextSet(0), refNext(0); got != want {
				t.Fatalf("final: nextSet(0) = %d, want %d", got, want)
			}
			if f.nextSet(n) != -1 || f.nextSet(n+100) != -1 {
				t.Fatal("nextSet past the end must return -1")
			}
		})
	}
}

// TestBitmapAllocFreeMergeRoundTrip walks the bitmap allocator through
// an alloc/free/merge/reuse cycle where every interesting transition is
// observable through block offsets: forward merging across a freed
// neighbor, reuse of the merged block by a larger request, a re-split
// back into the original blocks, and lazy discard of the stale stack
// entry the merge leaves behind.
func TestBitmapAllocFreeMergeRoundTrip(t *testing.T) {
	// One arena: the offsets below assume every request lands in the
	// same free run (sync.Pool affinity hints are not deterministic
	// under the race detector).
	p, _ := newTestPool(t, Config{Knobs: Knobs{NArenas: 1}})
	alloc := func(size uint64) Oid {
		t.Helper()
		oid, err := p.Alloc(size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		return oid
	}
	free := func(oid Oid) {
		t.Helper()
		if err := p.Free(oid); err != nil {
			t.Fatalf("Free(%v): %v", oid, err)
		}
	}

	// Three adjacent 128-byte blocks carved off the front of the heap.
	a, b, c := alloc(100), alloc(100), alloc(100)
	if b.Off != a.Off+128 || c.Off != b.Off+128 {
		t.Fatalf("allocations not adjacent: %#x %#x %#x", a.Off, b.Off, c.Off)
	}

	// Freeing b lists a 128-block; freeing a then forward-merges it into
	// a 256-block (and strands b's 128-class stack entry as stale).
	free(b)
	free(a)

	// A 256-class request must reuse the merged block.
	big := alloc(200)
	if big.Off != a.Off {
		t.Fatalf("merged block not reused: got %#x, want %#x", big.Off, a.Off)
	}

	// Re-split: two 128-byte requests recover exactly a and b. The
	// first scans the 128 class, finds only b's stale entry (its slot
	// bit died with the merge), discards it and splits the 256 block.
	free(big)
	r1, r2 := alloc(100), alloc(100)
	if r1.Off != a.Off || r2.Off != b.Off {
		t.Fatalf("re-split mismatch: got %#x,%#x want %#x,%#x", r1.Off, r2.Off, a.Off, b.Off)
	}
	free(r1)
	free(r2)
	free(c)
}

// blockMap snapshots the heap's block chain (offset -> size and state).
func blockMap(t *testing.T, p *Pool) map[uint64][2]uint64 {
	t.Helper()
	out := map[uint64][2]uint64{}
	p.heap.lockAll()
	defer p.heap.unlockAll()
	err := p.heap.walkLocked(p, func(off, size, state uint64, inFlux bool) error {
		out[off] = [2]uint64{size, state}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	return out
}

// freeCount sums the live free-listed blocks across arenas.
func freeCount(p *Pool) int {
	n := 0
	for i := range p.heap.arenas {
		a := &p.heap.arenas[i]
		a.mu.Lock()
		n += a.nFree
		a.mu.Unlock()
	}
	return n
}

// TestBitmapRebuildEquivalence checks that the free structures rebuilt
// at open are an exact volatile view of the persistent heap: after a
// randomized alloc/free/realloc history, reopening lists every free
// block of the walked chain exactly once and at its header size, keeps
// every allocated block and the occupancy, and keeps serving
// allocations from that state.
func TestBitmapRebuildEquivalence(t *testing.T) {
	p, dev := newTestPool(t, Config{})
	rng := rand.New(rand.NewSource(7))
	var live []Oid
	for i := 0; i < 400; i++ {
		switch {
		case rng.Intn(100) < 55 || len(live) == 0:
			oid, err := p.Alloc(32 + uint64(rng.Intn(3000)))
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			live = append(live, oid)
		case rng.Intn(2) == 0:
			k := rng.Intn(len(live))
			if err := p.Free(live[k]); err != nil {
				t.Fatalf("Free: %v", err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			k := rng.Intn(len(live))
			oid, err := p.Realloc(live[k], 32+uint64(rng.Intn(3000)))
			if err != nil {
				t.Fatalf("Realloc: %v", err)
			}
			live[k] = oid
		}
	}

	base := blockMap(t, p)
	baseStats := p.Stats()

	q := reopen(t, dev)
	// Open coalesces adjacent free runs, so the rebuilt chain may hold
	// fewer free blocks than the live one, but every allocated block
	// must survive untouched.
	chain := blockMap(t, q)
	for off, ss := range base {
		if ss[1] == blockAllocated && chain[off] != ss {
			t.Fatalf("allocated block %#x rebuilt as %v, want %v", off, chain[off], ss)
		}
	}
	walkedFree := 0
	q.heap.lockAll()
	for off, ss := range chain {
		if ss[1] != blockFree {
			continue
		}
		walkedFree++
		size, ok := q.heap.arenaOf(off).freeSizeAt(q, off)
		if !ok || size != ss[0] {
			q.heap.unlockAll()
			t.Fatalf("free block %#x (size %d) listed as %d, %v", off, ss[0], size, ok)
		}
	}
	q.heap.unlockAll()
	if got := freeCount(q); got != walkedFree {
		t.Fatalf("free structures list %d blocks, the chain has %d", got, walkedFree)
	}
	if s := q.Stats(); s != baseStats {
		t.Fatalf("rebuilt stats %+v, want %+v", s, baseStats)
	}

	// The rebuilt view must serve the live set: free everything through
	// it, then a fresh reopen must see an empty, fully coalesced heap.
	for _, oid := range live {
		if err := q.Free(oid); err != nil {
			t.Fatalf("Free after rebuild: %v", err)
		}
	}
	q2 := reopen(t, dev)
	if got := q2.Stats().AllocatedObjects; got != 0 {
		t.Fatalf("reopen after freeing every object: %d objects live, want 0", got)
	}
	if _, err := q2.Alloc(4096); err != nil {
		t.Fatalf("Alloc after full free: %v", err)
	}
}

// TestBitmapLargeBlocks exercises the large-block spillover: requests
// above smallClassMax bypass the class pools and must still round-trip,
// merge and rebuild.
func TestBitmapLargeBlocks(t *testing.T) {
	dev := pmem.NewPool("test", 1<<23)
	p, err := Create(dev, nil, testBase, Config{UUID: 0xbeef, Knobs: Knobs{NArenas: 1}})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	a, err := p.Alloc(smallClassMax * 2)
	if err != nil {
		t.Fatalf("Alloc large: %v", err)
	}
	b, err := p.Alloc(smallClassMax * 3)
	if err != nil {
		t.Fatalf("Alloc large: %v", err)
	}
	if err := p.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// The freed large block must be found again by a same-size request.
	a2, err := p.Alloc(smallClassMax * 2)
	if err != nil {
		t.Fatalf("Alloc large again: %v", err)
	}
	if a2.Off != a.Off {
		t.Fatalf("large block not reused: got %#x, want %#x", a2.Off, a.Off)
	}
	if err := p.Free(b); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := p.Free(a2); err != nil {
		t.Fatalf("Free: %v", err)
	}
	q := reopen(t, dev)
	if got := q.Stats().AllocatedObjects; got != 0 {
		t.Fatalf("%d objects live after frees, want 0", got)
	}
}
