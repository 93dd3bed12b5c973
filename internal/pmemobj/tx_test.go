package pmemobj

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestTxCommitMakesChangesDurable(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)

	tx := p.Begin()
	if err := tx.AddRange(root.Off, 16); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(root.Off, 0xaa)
	dev.WriteU64(root.Off+8, 0xbb)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := reopen(t, dev)
	r, _ := q.Root(64)
	if dev.ReadU64(r.Off) != 0xaa || dev.ReadU64(r.Off+8) != 0xbb {
		t.Error("committed stores lost after reopen")
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 0x11)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	if err := tx.AddRange(root.Off, 8); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(root.Off, 0x22)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadU64(root.Off); got != 0x11 {
		t.Errorf("after abort = %#x, want 0x11", got)
	}
}

func TestTxRollbackOrderIsLIFO(t *testing.T) {
	// Two snapshots of the same range: rollback must restore the
	// oldest pre-image (reverse application).
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 1)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 2)
	_ = tx.AddRange(root.Off, 8) // snapshots value 2
	dev.WriteU64(root.Off, 3)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadU64(root.Off); got != 1 {
		t.Errorf("after abort = %d, want original 1", got)
	}
}

func TestTxDoneErrors(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	tx := p.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("second Commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Abort after Commit = %v", err)
	}
	if err := tx.AddRange(0, 8); !errors.Is(err, ErrTxDone) {
		t.Errorf("AddRange after Commit = %v", err)
	}
	if _, err := tx.Alloc(8); !errors.Is(err, ErrTxDone) {
		t.Errorf("Alloc after Commit = %v", err)
	}
}

// TestStaleTxHandleAfterLaneReuse: a transaction's working set is the
// lane's and is handed to the lane's next transaction, but the handle
// is not. A handle kept past Commit still answers ErrTxDone while a
// second transaction is open on the same lane, touches none of its
// state, and the second transaction starts empty and commits what it
// did — no more, no less.
func TestStaleTxHandleAfterLaneReuse(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	root, _ := p.Root(64)
	stale := p.Begin()
	kept, err := stale.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.AddRange(root.Off, 8); err != nil {
		t.Fatal(err)
	}
	if err := stale.Commit(); err != nil {
		t.Fatal(err)
	}

	live := p.Begin()
	if live.lane != stale.lane {
		t.Skipf("second transaction took lane %d, not lane %d again", live.lane, stale.lane)
	}
	if n := len(live.allocs) + len(live.frees) + len(live.ranges) + len(live.exts) + len(live.entries) + len(live.freePlans); n != 0 {
		t.Fatalf("a fresh transaction starts with %d scratch elements of the lane's last one", n)
	}
	fresh, err := live.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Free(kept); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Alloc(8); !errors.Is(err, ErrTxDone) {
		t.Errorf("stale Alloc = %v, want ErrTxDone", err)
	}
	if err := stale.Free(fresh); !errors.Is(err, ErrTxDone) {
		t.Errorf("stale Free = %v, want ErrTxDone", err)
	}
	if err := stale.AddRange(root.Off, 8); !errors.Is(err, ErrTxDone) {
		t.Errorf("stale AddRange = %v, want ErrTxDone", err)
	}
	if err := stale.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("stale Abort = %v, want ErrTxDone", err)
	}
	if err := stale.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("stale Commit = %v, want ErrTxDone", err)
	}
	if len(live.allocs) != 1 || len(live.frees) != 1 {
		t.Fatalf("the stale handle moved the live transaction: %d allocs, %d frees; want 1, 1", len(live.allocs), len(live.frees))
	}
	before := p.Stats().AllocatedObjects
	if err := live.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().AllocatedObjects; got != before {
		t.Errorf("one alloc and one free committed: %d objects, were %d", got, before)
	}
	if _, err := p.validateOid(fresh); err != nil {
		t.Errorf("the live transaction's allocation is gone: %v", err)
	}
	if err := live.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("second Commit = %v, want ErrTxDone", err)
	}
}

func TestTxAddRangeValidation(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	tx := p.Begin()
	defer func() { _ = tx.Abort() }()
	if err := tx.AddRange(p.dev.Size()-4, 8); err == nil {
		t.Error("AddRange past pool end accepted")
	}
}

func TestTxAllocCommitted(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)

	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddOidRange(root.Off); err != nil {
		t.Fatal(err)
	}
	p.WriteOid(root.Off, oid)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := reopen(t, dev)
	got := q.ReadOid(root.Off)
	if got != oid {
		t.Errorf("oid after reopen = %v, want %v", got, oid)
	}
	if _, err := q.validateOid(got); err != nil {
		t.Errorf("tx-allocated object not live after reopen: %v", err)
	}
}

func TestTxAllocAbortReleasesBlock(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	before := p.Stats()
	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err == nil {
		t.Error("aborted tx alloc still live")
	}
	if got := p.Stats(); got.AllocatedBytes != before.AllocatedBytes {
		t.Errorf("stats leaked: %+v vs %+v", got, before)
	}
}

func TestTxAllocLostOnCrashBeforeCommit(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated power loss: reopen the device without ending the tx.
	q := reopen(t, dev)
	if _, err := q.validateOid(oid); err == nil {
		t.Error("uncommitted block still allocated after recovery")
	}
	if got := q.Stats(); got.AllocatedObjects != 0 {
		t.Errorf("recovered pool has %d objects, want 0", got.AllocatedObjects)
	}
}

func TestTxFreeDeferredToCommit(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	if err := tx.Free(oid); err != nil {
		t.Fatal(err)
	}
	// Before commit the object is still live.
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("object freed before commit: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err == nil {
		t.Error("object live after committed tx free")
	}
}

func TestTxFreeSurvivesAbort(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, _ := p.Alloc(64)
	tx := p.Begin()
	_ = tx.Free(oid)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("object freed despite abort: %v", err)
	}
}

func TestTxFreeOwnAllocImmediate(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	before := p.Stats()
	tx := p.Begin()
	oid, _ := tx.Alloc(64)
	if err := tx.Free(oid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.AllocatedBytes != before.AllocatedBytes {
		t.Errorf("alloc+free in tx leaked: %+v", got)
	}
}

func TestTxRealloc(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	if err := p.AllocAt(root.Off, 16); err != nil {
		t.Fatal(err)
	}
	oid := p.ReadOid(root.Off)
	dev.WriteBytes(oid.Off, []byte("txdata"))
	dev.Persist(oid.Off, 6)

	tx := p.Begin()
	newOid, err := tx.Realloc(oid, 256)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.AddOidRange(root.Off)
	p.WriteOid(root.Off, newOid)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := p.ReadOid(root.Off)
	if got.Size != 256 {
		t.Errorf("size = %d", got.Size)
	}
	if string(dev.ReadBytes(got.Off, 6)) != "txdata" {
		t.Error("payload lost in tx realloc")
	}
}

func TestTxReallocAbortKeepsOriginal(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	oid, _ := p.Alloc(16)
	dev.WriteBytes(oid.Off, []byte("orig"))
	dev.Persist(oid.Off, 4)

	tx := p.Begin()
	if _, err := tx.Realloc(oid, 256); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("original object gone after aborted realloc: %v", err)
	}
	if string(dev.ReadBytes(oid.Off, 4)) != "orig" {
		t.Error("original payload damaged")
	}
}

// TestCrashDuringTxRollsBackOnRecovery is the core §VI-E property: a
// transaction interrupted by power loss must leave no trace.
func TestCrashDuringTxRollsBackOnRecovery(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 0x1111)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 0x2222)
	dev.Persist(root.Off, 8) // even persisted stores must roll back
	_, _ = tx.Alloc(512)

	q := reopen(t, dev) // crash + recovery
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 0x1111 {
		t.Errorf("after crash recovery = %#x, want rollback to 0x1111", got)
	}
	if got := q.Stats(); got.AllocatedObjects != 1 { // the root only
		t.Errorf("recovered pool has %d objects, want 1 (root)", got.AllocatedObjects)
	}
}

// TestCrashWithPreparedRedoBeforeCommitPoint: the redo log is written
// and committed, but the undo log is still active — the tx had not
// reached its commit point, so recovery must discard the redo.
func TestCrashWithPreparedRedoBeforeCommitPoint(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 7)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 8)
	// Hand-prepare a redo that would clobber the root if applied.
	p.prepareRedo(tx.laneOff, []redoEntry{{root.Off, 0xdddd}}, nil)

	q := reopen(t, dev)
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 7 {
		t.Errorf("after recovery = %#x, want 7 (redo discarded, undo rolled back)", got)
	}
}

// TestCrashAfterCommitPointAppliesRedo: the undo log is inactive and a
// committed redo log remains — recovery must complete it.
func TestCrashAfterCommitPointAppliesRedo(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	lane := p.laneOff(0)
	p.prepareRedo(lane, []redoEntry{{root.Off, 0xcafe}}, nil)
	q := reopen(t, dev)
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 0xcafe {
		t.Errorf("after recovery = %#x, want redo applied 0xcafe", got)
	}
	if dev.ReadU64(lane+laneRedoState) != redoEmpty {
		t.Error("redo log not cleared after recovery")
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	_ = p.AllocAt(root.Off, 100)
	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 0)

	q := reopen(t, dev)
	oid1 := q.ReadOid(root.Off)
	q2 := reopen(t, dev)
	oid2 := q2.ReadOid(root.Off)
	if oid1 != oid2 {
		t.Errorf("recovery not idempotent: %v vs %v", oid1, oid2)
	}
	if _, err := q2.validateOid(oid2); err != nil {
		t.Errorf("object invalid after double recovery: %v", err)
	}
}

// TestUndoLogGrowsWithExtensions: snapshots beyond the in-lane log
// capacity spill into heap-allocated extension segments (PMDK's log
// extensions) and still roll back correctly — including across a
// crash, where heap rebuild reclaims the extension blocks.
func TestUndoLogGrowsWithExtensions(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true, Geometry: Geometry{UndoBytes: 256}})
	root, _ := p.Root(64)
	oid, err := p.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteOid(root.Off, oid)
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, i)
	}
	dev.Persist(oid.Off, 64<<10)

	// Abort path: many small snapshots plus one huge one.
	tx := p.Begin()
	for i := uint64(0); i < 64; i++ {
		if err := tx.AddRange(oid.Off+i*128, 64); err != nil {
			t.Fatalf("small AddRange %d: %v", i, err)
		}
	}
	if err := tx.AddRange(oid.Off, 64<<10); err != nil {
		t.Fatalf("huge AddRange: %v", err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, 0xdead)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		if got := dev.ReadU64(oid.Off + i); got != i {
			t.Fatalf("rollback lost data at +%d: %#x", i, got)
		}
	}
	stats := p.Stats()
	if stats.AllocatedObjects != 2 { // root + object
		t.Errorf("extension blocks leaked: %d objects", stats.AllocatedObjects)
	}

	// Crash path: same snapshots, power loss instead of Abort.
	tx2 := p.Begin()
	if err := tx2.AddRange(oid.Off, 64<<10); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, 0xbeef)
	}
	q := reopen(t, dev)
	r, _ := q.Root(64)
	oid2 := q.ReadOid(r.Off)
	for i := uint64(0); i < 64<<10; i += 8 {
		if got := dev.ReadU64(oid2.Off + i); got != i {
			t.Fatalf("crash rollback lost data at +%d: %#x", i, got)
		}
	}
	if got := q.Stats(); got.AllocatedObjects != 2 {
		t.Errorf("extension blocks leaked across crash: %d objects", got.AllocatedObjects)
	}
}

// TestRedoExtensionBeforeLastFreeRun: a commit whose redo log needs an
// extension segment and whose frees include the block in front of the
// heap's only free run, in a pool full enough for that run to be small.
// Planning the free absorbs the run — all the free space there is —
// until the redo settles, so the segment must be reserved first;
// reserved afterwards, the commit aborted with out-of-memory although
// the segment fits the free space several times over.
func TestRedoExtensionBeforeLastFreeRun(t *testing.T) {
	p, dev := newTestPool(t, Config{Knobs: Knobs{NArenas: 1}, Geometry: Geometry{RedoEntries: 4}})
	const tail = 32 << 10 // left free: below minArenaSpan, so a planned free absorbs it
	if _, err := p.Alloc(p.Stats().FreeBytes - tail); err != nil {
		t.Fatal(err)
	}
	var oids [3]Oid
	for i := range oids {
		var err error
		if oids[i], err = p.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	last := oids[2].Off - blockHdrSize
	run := last + dev.ReadU64(last)
	a := p.heap.arenaOf(run)
	a.mu.Lock()
	runSize, ok := a.freeSizeAt(p, run)
	a.mu.Unlock()
	if !ok || runSize != p.Stats().FreeBytes || runSize >= minArenaSpan {
		t.Fatalf("block after the last object: free=%v, %d bytes; the heap has %d free", ok, runSize, p.Stats().FreeBytes)
	}

	before := p.Stats()
	tx := p.Begin()
	for _, oid := range oids { // 6 redo entries against a capacity of 4
		if err := tx.Free(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	after := p.Stats()
	if after.AllocatedObjects != before.AllocatedObjects-3 {
		t.Errorf("%d objects allocated after freeing 3 of %d (a leaked extension segment?)", after.AllocatedObjects, before.AllocatedObjects)
	}
	if _, err := p.Alloc(after.FreeBytes / 2); err != nil {
		t.Errorf("the free run did not come back: %v", err)
	}
}

// TestPlannedFreeLeavesLargeRunAllocatable: while a free is planned but
// not yet published, the space it absorbed is off the lists. A small
// free neighbor is absorbed (coalescing); the run holding nearly all of
// the heap is not, so an allocation racing with the free still
// succeeds — it used to fail with out-of-memory on an empty pool
// (the 1-arena alloc/free storm of `-exp scaling`, about one run in
// thirty).
func TestPlannedFreeLeavesLargeRunAllocatable(t *testing.T) {
	p, dev := newTestPool(t, Config{Knobs: Knobs{NArenas: 1}})
	var oids [3]Oid
	for i := range oids {
		var err error
		if oids[i], err = p.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	blk := func(o Oid) (off, size uint64) {
		off = o.Off - blockHdrSize
		return off, dev.ReadU64(off)
	}
	// oids[2] sits in front of the run that is the rest of the heap.
	last, lastSize := blk(oids[2])
	if merged := p.heap.planFree(p, last, lastSize); merged != lastSize {
		t.Fatalf("planned free absorbed %d bytes of the heap's last free run", merged-lastSize)
	}
	if _, err := p.Alloc(4096); err != nil {
		t.Fatalf("Alloc while a free in front of the free run is planned: %v", err)
	}
	p.heap.unreserve(last) // withdraw the plan: nothing was published
	if err := p.Free(oids[2]); err != nil {
		t.Fatal(err)
	}
	// oids[1] now sits in front of a small free block: absorbed.
	mid, midSize := blk(oids[1])
	if merged := p.heap.planFree(p, mid, midSize); merged != midSize+lastSize {
		t.Fatalf("planned free merged to %d bytes, want block %d + free neighbor %d", merged, midSize, lastSize)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true, Geometry: Geometry{NLanes: 8}})
	root, _ := p.Root(1024)
	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := root.Off + uint64(g)*32
			for i := 0; i < iters; i++ {
				tx := p.Begin()
				if err := tx.AddRange(slot, 8); err != nil {
					t.Errorf("AddRange: %v", err)
					_ = tx.Abort()
					return
				}
				dev.WriteU64(slot, uint64(g)<<32|uint64(i))
				oid, err := tx.Alloc(64)
				if err != nil {
					t.Errorf("tx.Alloc: %v", err)
					_ = tx.Abort()
					return
				}
				if err := tx.Free(oid); err != nil {
					t.Errorf("tx.Free: %v", err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		slot := root.Off + uint64(g)*32
		if got := dev.ReadU64(slot); got != uint64(g)<<32|uint64(iters-1) {
			t.Errorf("slot %d = %#x", g, got)
		}
	}
	if got := p.Stats(); got.AllocatedObjects != 1 { // root only
		t.Errorf("leaked objects: %d", got.AllocatedObjects)
	}
}

func TestConcurrentAtomicAllocFree(t *testing.T) {
	p, _ := newTestPool(t, Config{Geometry: Geometry{NLanes: 8}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				oid, err := p.Alloc(uint64(16 + i%64))
				if err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				if err := p.Free(oid); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Stats(); got.AllocatedObjects != 0 {
		t.Errorf("leaked %d objects", got.AllocatedObjects)
	}
}

// TestTxAllocFreeTelemetry moves spp_alloc_total, spp_alloc_bytes_total
// and spp_free_total through a transaction: the series are documented
// as atomic+tx, and a committed transaction's allocations and frees
// must count exactly once while an aborted one's never do.
func TestTxAllocFreeTelemetry(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	p, _ := newTestPool(t, Config{SPP: true})
	type series struct{ allocs, frees, bytes uint64 }
	read := func() series {
		return series{metAllocs.Load(), metFrees.Load(), metAllocBytes.Load()}
	}

	before := read()
	tx := p.Begin()
	a, err := tx.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Alloc(200); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != before {
		t.Errorf("uncommitted tx moved the series: %+v -> %+v", before, got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := read()
	if got.allocs-before.allocs != 2 || got.frees != before.frees {
		t.Errorf("committed 2 tx allocs: allocs +%d frees +%d, want +2 +0",
			got.allocs-before.allocs, got.frees-before.frees)
	}
	if got.bytes-before.bytes < 300 {
		t.Errorf("alloc bytes +%d, want at least the 300 requested", got.bytes-before.bytes)
	}

	before = read()
	tx = p.Begin()
	if err := tx.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got.frees-before.frees != 1 || got.allocs != before.allocs {
		t.Errorf("committed 1 tx free: allocs +%d frees +%d, want +0 +1",
			got.allocs-before.allocs, got.frees-before.frees)
	}

	before = read()
	tx = p.Begin()
	if _, err := tx.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != before {
		t.Errorf("aborted tx moved the series: %+v -> %+v", before, got)
	}
}
