package pmem

import (
	"sync"
	"testing"
)

// traceCounter tallies events and remembers store sizes.
type traceCounter struct {
	mu         sync.Mutex
	stores     int
	storeSizes []uint64
	flushes    int
	fences     int
}

func (c *traceCounter) RecordStore(off uint64, data []byte) {
	c.mu.Lock()
	c.stores++
	c.storeSizes = append(c.storeSizes, uint64(len(data)))
	c.mu.Unlock()
}
func (c *traceCounter) RecordFlush(off, size uint64) {
	c.mu.Lock()
	c.flushes++
	c.mu.Unlock()
}
func (c *traceCounter) RecordFence() {
	c.mu.Lock()
	c.fences++
	c.mu.Unlock()
}

func TestWriteU64sFastPath(t *testing.T) {
	p := NewPool("bulk", 4096)
	p.WriteU64s(64, []uint64{1, 2, 3, 0xdeadbeef})
	for i, want := range []uint64{1, 2, 3, 0xdeadbeef} {
		if got := p.ReadU64(64 + uint64(i)*8); got != want {
			t.Errorf("word %d = %#x, want %#x", i, got, want)
		}
	}
	p.WriteU64s(128, nil) // no-op
}

// TestWriteU64sTrackedFallback pins the contract that bulk writes keep
// the exact 8-byte store sequence in the persistence trace: pmemcheck's
// atomicity model depends on it.
func TestWriteU64sTrackedFallback(t *testing.T) {
	p := NewPool("bulk-tracked", 4096)
	sink := &traceCounter{}
	p.EnableTracking(sink)
	p.WriteU64s(64, []uint64{7, 8, 9})
	if sink.stores != 3 {
		t.Fatalf("tracked bulk write recorded %d stores, want 3", sink.stores)
	}
	for i, s := range sink.storeSizes {
		if s != 8 {
			t.Errorf("store %d has size %d, want 8", i, s)
		}
	}
	p.Persist(64, 24)
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	dup := NewPool("check", 4096)
	copy(dup.Data(), img)
	if dup.ReadU64(64) != 7 || dup.ReadU64(80) != 9 {
		t.Error("bulk write not durable after persist")
	}
}

func TestFlushAccumCoalescesLines(t *testing.T) {
	p := NewPool("accum", 1<<16)
	sink := &traceCounter{}
	p.EnableTracking(sink)
	a := NewFlushAccum(p)
	// Twelve requests inside two cachelines plus one distant line.
	for i := uint64(0); i < 8; i++ {
		a.Flush(i*8, 8) // all in lines 0..1? offsets 0..63: line 0
	}
	a.Flush(64, 8)  // line 1, adjacent: merges
	a.Flush(0, 128) // duplicate of both
	a.Flush(4096, 8)
	a.Flush(4100, 16) // same line as previous
	a.Drain()
	p.Fence()
	if sink.flushes != 2 {
		t.Fatalf("device saw %d flushes, want 2 merged ranges", sink.flushes)
	}
	// Drain with nothing pending is a no-op.
	a.Drain()
	if sink.flushes != 2 {
		t.Fatalf("empty drain issued flushes")
	}
}

// TestFlushAccumLeftwardMergeKeepsTail: a request that extends the last
// line to the left must not lose the line's original tail (regression:
// the merged end was computed after moving the start).
func TestFlushAccumLeftwardMergeKeepsTail(t *testing.T) {
	p := NewPool("accum-left", 1<<16)
	p.EnableTracking(nil)
	a := NewFlushAccum(p)
	p.WriteU64(64, 1)
	p.WriteU64(128, 2)
	p.WriteU64(0, 3)
	a.Flush(64, 128) // lines [64, 192)
	a.Flush(0, 8)    // leftward-adjacent line [0, 64)
	a.Drain()
	p.Fence()
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	dup := NewPool("check", uint64(len(img)))
	copy(dup.Data(), img)
	for _, c := range []struct{ off, want uint64 }{{64, 1}, {128, 2}, {0, 3}} {
		if got := dup.ReadU64(c.off); got != c.want {
			t.Errorf("offset %d = %d after leftward merge, want %d", c.off, got, c.want)
		}
	}
}

func TestFlushAccumDurability(t *testing.T) {
	p := NewPool("accum-durable", 1<<16)
	p.EnableTracking(nil)
	a := NewFlushAccum(p)
	p.WriteU64(100, 42)
	p.WriteU64(9000, 43)
	a.Flush(100, 8)
	a.Flush(9000, 8)
	a.Drain()
	p.Fence()
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	dup := NewPool("check", uint64(len(img)))
	copy(dup.Data(), img)
	if dup.ReadU64(100) != 42 || dup.ReadU64(9000) != 43 {
		t.Error("accumulated flushes not durable after drain+fence")
	}
}

// TestGroupFenceAlwaysFencesWhenAlone: with no concurrent committer the
// combiner must degrade to a plain fence — the caller's lines become
// durable.
func TestGroupFenceAlwaysFencesWhenAlone(t *testing.T) {
	p := NewPool("gfence", 4096)
	p.EnableTracking(nil)
	p.WriteU64(64, 11)
	p.Flush(64, 8)
	p.GroupFence()
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	dup := NewPool("check", 4096)
	copy(dup.Data(), img)
	if dup.ReadU64(64) != 11 {
		t.Error("solo GroupFence did not make the line durable")
	}
}

// TestGroupFenceConcurrentDurability: every goroutine's flushed line
// must be durable once its GroupFence returns, whether it led or
// followed.
func TestGroupFenceConcurrentDurability(t *testing.T) {
	p := NewPool("gfence-conc", 1<<20)
	p.EnableTracking(nil)
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				off := uint64(w)*4096 + uint64(i%32)*64
				p.WriteU64(off, uint64(w)<<32|uint64(i))
				p.Flush(off, 8)
				p.GroupFence()
				// The value just fenced must be durable now. Concurrent
				// writers touch disjoint offsets, so a stale read here
				// is a combiner bug, not a race.
				img, err := p.DurableImage()
				if err != nil {
					t.Error(err)
					return
				}
				got := uint64(img[off]) | uint64(img[off+1])<<8 | uint64(img[off+2])<<16 |
					uint64(img[off+3])<<24 | uint64(img[off+4])<<32 | uint64(img[off+5])<<40 |
					uint64(img[off+6])<<48 | uint64(img[off+7])<<56
				if got != uint64(w)<<32|uint64(i) {
					t.Errorf("worker %d round %d: fenced value not durable (got %#x)", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestGroupFenceFastModeIsPlainFence(t *testing.T) {
	p := NewPool("gfence-fast", 4096)
	// Tracking off: must not touch the combiner (epoch stays put) and
	// must not panic or block.
	p.GroupFence()
	if p.fenceEpoch.Load() != 0 {
		t.Error("fast-mode GroupFence advanced the combiner epoch")
	}
}
