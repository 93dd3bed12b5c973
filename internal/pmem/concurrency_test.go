package pmem

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/vmem"
)

// TestConcurrentStoreFlushFence exercises the device data path from
// many goroutines in both modes, with mode flips at the quiescent
// barriers between rounds (EnableTracking snapshots the whole image,
// so it requires a quiet data path — same as snapshotting real
// memory). The test asserts little beyond termination and final
// durability — its value is running under -race: concurrent stores,
// flushes and fences on disjoint ranges must not trip the detector in
// either mode.
func TestConcurrentStoreFlushFence(t *testing.T) {
	const workers = 8
	p := NewPool("conc", 1<<20)
	storm := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w) * 4096
				for i := 0; i < 500; i++ {
					off := base + uint64(i%64)*64
					p.WriteU64(off, uint64(w)<<32|uint64(i))
					p.Flush(off, 8)
					if i%16 == 0 {
						p.Fence()
					}
				}
				p.Fence()
			}(w)
		}
		wg.Wait()
	}
	storm() // performance mode
	p.EnableTracking(nil)
	storm() // tracked mode: bracketed stores and one pending set under contention
	p.DisableTracking()
	storm() // and back
	for w := 0; w < workers; w++ {
		base := uint64(w) * 4096
		want := uint64(w)<<32 | uint64(499)
		if got := p.ReadU64(base + uint64(499%64)*64); got != want {
			t.Errorf("worker %d: final store lost: %#x != %#x", w, got, want)
		}
	}
}

// TestConcurrentFenceDurability checks the pending set under
// contention: every worker persists a disjoint slot; all slots must be
// in the durable image afterwards regardless of how the concurrent
// Fences interleaved.
func TestConcurrentFenceDurability(t *testing.T) {
	const workers = 8
	p := NewPool("fence", 1<<20)
	p.EnableTracking(nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				off := uint64(w)*16384 + uint64(i)*64
				p.WriteU64(off, uint64(w+1)<<32|uint64(i))
				p.Persist(off, 8)
			}
		}(w)
	}
	wg.Wait()
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < 200; i++ {
			off := uint64(w)*16384 + uint64(i)*64
			want := uint64(w+1)<<32 | uint64(i)
			if got := leU64(img[off : off+8]); got != want {
				t.Fatalf("slot w=%d i=%d not durable: %#x != %#x", w, i, got, want)
			}
		}
	}
}

// BenchmarkStoreFlushFenceParallel is the contention microbenchmark
// for the lock-free fast path: per-op cost of the store+flush+fence
// sequence under GOMAXPROCS-way parallelism, tracking off (the
// performance mode every throughput experiment runs in) vs on. Before
// the refactor the tracking-off path took a global mutex per
// operation; now it is a single atomic load.
func BenchmarkStoreFlushFenceParallel(b *testing.B) {
	for _, tracked := range []bool{false, true} {
		b.Run(fmt.Sprintf("tracking=%v", tracked), func(b *testing.B) {
			p := NewPool("bench", 1<<24)
			if tracked {
				p.EnableTracking(nil)
			}
			var ctr sync.Mutex
			next := 0
			b.RunParallel(func(pb *testing.PB) {
				ctr.Lock()
				worker := next
				next++
				ctr.Unlock()
				base := uint64(worker%64) * 65536
				i := uint64(0)
				for pb.Next() {
					off := base + (i%1024)*8
					p.WriteU64(off, i)
					p.Flush(off, 8)
					p.Fence()
					i++
				}
			})
		})
	}
}

// TestSharedLineStoresVsFence is the regression test for a tracked
// fence's copy of flushed lines racing with stores to other bytes of
// the same lines: writers own disjoint words of shared cachelines and
// store through both the device and a vmem mapping, while fencers keep
// flushing every line and group-fencing. Its main value is under -race;
// it also checks that each writer's last persisted word is durable.
func TestSharedLineStoresVsFence(t *testing.T) {
	const (
		writers = 4
		fencers = 2
		lines   = 4
		rounds  = 2000
		base    = 0x10000
	)
	p := NewPool("shared", 1<<12)
	as := vmem.New()
	if err := as.Map(&vmem.Mapping{Base: base, Data: p.Data(), Name: p.Name(), Observer: p}); err != nil {
		t.Fatal(err)
	}
	p.EnableTracking(nil)
	word := func(w, line int) uint64 { return uint64(line*CachelineSize + w*8) }
	var writing, fencing sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < fencers; f++ {
		fencing.Add(1)
		go func() {
			defer fencing.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Flush(0, lines*CachelineSize)
				p.GroupFence()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 1; i <= rounds; i++ {
				off := word(w, i%lines)
				v := uint64(w+1)<<32 | uint64(i)
				if i%2 == 0 {
					p.WriteU64(off, v)
				} else if err := as.StoreU64(base+off, v); err != nil {
					t.Error(err)
					return
				}
				p.Flush(off, 8)
				if i%8 == 0 {
					p.GroupFence()
				}
			}
			for line := 0; line < lines; line++ {
				p.WriteU64(word(w, line), uint64(w+1)<<48|uint64(line))
				p.Flush(word(w, line), 8)
			}
			p.GroupFence()
		}(w)
	}
	writing.Wait()
	close(stop)
	fencing.Wait()
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for line := 0; line < lines; line++ {
			off := word(w, line)
			if got, want := leU64(img[off:off+8]), uint64(w+1)<<48|uint64(line); got != want {
				t.Errorf("writer %d line %d: durable %#x, want %#x", w, line, got, want)
			}
		}
	}
}

// BenchmarkTrackedPutShape is the device-side shape of one durable put
// on a tracked pool: a single goroutine makes k 8-byte stores into
// consecutive words, flushes them and group-fences. It isolates the
// lock cost a tracked store, flush and fence pay.
func BenchmarkTrackedPutShape(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := NewPool("bench", 1<<20)
			p.EnableTracking(nil)
			span := uint64(k) * 8
			for i := 0; i < b.N; i++ {
				off := uint64(i) * span % (p.Size() - span)
				for j := uint64(0); j < span; j += 8 {
					p.WriteU64(off+j, uint64(i))
				}
				p.Flush(off, span)
				p.GroupFence()
			}
		})
	}
}
