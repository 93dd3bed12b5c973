package pmemobj

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("pmemobj: transaction already committed or aborted")

type txRange struct {
	off, size uint64
}

// mergedFree is one deferred free as Commit planned it: the block, its
// size, and the size it has once merged with its free successor.
type mergedFree struct {
	blk, size, merged uint64
}

// txScratch is the working set of the transaction that holds a lane:
// what it reserved, freed, snapshotted and extended its log with, and
// the redo entries and free plans its commit builds. One lives with
// every lane, which a transaction holds exclusively from Begin to
// Commit or Abort, so a transaction borrows the slices empty and hands
// them back truncated, and a steady-state transaction allocates none of
// them.
type txScratch struct {
	allocs    []reservation // blocks reserved (uncommitted) by the tx
	frees     []uint64      // block offsets to release at commit
	ranges    []txRange     // snapshotted ranges, flushed at commit
	exts      []reservation // undo-log extension blocks
	entries   []redoEntry
	freePlans []mergedFree
}

// txScratchRetain is the capacity, in elements, above which a scratch
// slice is dropped rather than kept for the lane's next transaction: a
// rehash that moved a whole shard must not pin its working set forever.
const txScratchRetain = 1024

func (sc *txScratch) reset() {
	sc.allocs, sc.frees = retain(sc.allocs), retain(sc.frees)
	sc.ranges, sc.exts = retain(sc.ranges), retain(sc.exts)
	sc.entries, sc.freePlans = retain(sc.entries), retain(sc.freePlans)
}

func retain[T any](s []T) []T {
	if cap(s) > txScratchRetain {
		return nil
	}
	return s[:0]
}

// Tx is an open software transaction, PMDK's TX_BEGIN block. A Tx is
// bound to one lane and must be used from a single goroutine; it must
// end in exactly one Commit or Abort.
//
// The commit point is the invalidation of the lane's undo log — a
// single 8-byte store. Until then a crash rolls every snapshotted
// range back and releases every block the transaction reserved; after
// it, recovery completes the deferred frees and allocation state flips
// from the prepared redo log.
//
// The handle is a fresh object per transaction even though its working
// set is the lane's: a handle kept past Commit or Abort answers
// ErrTxDone, where a recycled one would alias whichever transaction
// holds the lane next.
type Tx struct {
	p          *Pool
	lane       int
	laneOff    uint64
	undoOff    uint64
	*txScratch // the lane's, until end; nil afterwards
	done       bool

	// undoBytes is the payload total snapshotted so far, for the
	// per-transaction telemetry histogram.
	undoBytes uint64

	// tr, when non-nil, is the sampled request this transaction serves;
	// Begin and Commit attribute their stage durations to it. Nil for
	// every untraced transaction, which then pays only nil checks.
	tr *trace.Req

	// Active undo segment (the in-lane region first, then extensions).
	segData      uint64 // pool offset of the segment's data region
	segUsed      uint64 // bytes used in the active segment
	segCap       uint64 // data capacity of the active segment
	segUsedField uint64 // pool offset of the segment's used counter
}

// Begin opens a transaction. It blocks until a lane is available.
func (p *Pool) Begin() *Tx { return p.BeginTraced(nil) }

// BeginTraced is Begin for a traced request: lane acquisition and log
// initialization are attributed to tr's tx-begin phase, and the
// transaction carries tr into Commit so the commit pipeline's stages
// (flush coalesce, fence, commit point) report their own durations.
// A nil tr is exactly Begin.
func (p *Pool) BeginTraced(tr *trace.Req) *Tx {
	span := tr.Span(trace.PhaseTxBegin)
	lane := p.lanes.acquire()
	undo := p.undoOff(lane)
	p.dev.WriteU64s(undo+undoStateOff, []uint64{undoActive, 0, 0})
	p.persist(undo, undoDataOff)
	metTxBegin.Inc()
	telemetry.Flight.Record(telemetry.EvTxBegin, uint64(lane), 0)
	span.End()
	return &Tx{
		p: p, lane: lane, laneOff: p.laneOff(lane), undoOff: undo, tr: tr,
		txScratch:    &p.txScratch[lane],
		segData:      undo + undoDataOff,
		segCap:       p.undoCap,
		segUsedField: undo + undoUsedOff,
	}
}

// AddRange snapshots [off, off+size) of the pool into the undo log
// (pmemobj_tx_add_range). Ranges snapshotted through this call are
// flushed at commit, so the caller may store into them with plain
// writes. The transaction keeps a sorted interval set of everything
// snapshotted so far — PMDK's ranges tree — and only the uncovered
// sub-ranges grow the undo log; overlapping and adjacent intervals
// merge. A byte's first covering call snapshots its pre-tx value, which
// is exactly what rollback must restore.
func (tx *Tx) AddRange(off, size uint64) error {
	if tx.done {
		return ErrTxDone
	}
	if off+size > tx.p.dev.Size() || off+size < off {
		return fmt.Errorf("%w: range [%#x,+%d) outside pool", ErrBadOid, off, size)
	}
	if size == 0 {
		return nil
	}
	lo, hi := off, off+size
	rs := tx.ranges
	// First interval ending at or after lo; everything before it is
	// strictly left of the request and not adjacent to it.
	i := sort.Search(len(rs), func(k int) bool { return rs[k].off+rs[k].size >= lo })
	cur, appended := lo, uint64(0)
	j := i
	for ; j < len(rs) && rs[j].off <= hi; j++ {
		if rs[j].off > cur {
			if err := tx.undoAppend(cur, rs[j].off-cur); err != nil {
				return err
			}
			appended += rs[j].off - cur
		}
		if end := rs[j].off + rs[j].size; end > cur {
			cur = end
		}
	}
	if cur < hi {
		if err := tx.undoAppend(cur, hi-cur); err != nil {
			return err
		}
		appended += hi - cur
	}
	if appended < size {
		metRangeDedup.Inc()
		metDedupBytes.Add(size - appended)
	}
	// Replace rs[i:j] with the union of the request and the intervals
	// it touched.
	merged := txRange{lo, hi - lo}
	if i < j {
		if rs[i].off < merged.off {
			merged.off = rs[i].off
		}
		if end := rs[j-1].off + rs[j-1].size; end > hi {
			merged.size = end - merged.off
		} else {
			merged.size = hi - merged.off
		}
	}
	if i == j {
		rs = append(rs, txRange{})
		copy(rs[i+1:], rs[i:])
	} else if i+1 < j {
		rs = append(rs[:i+1], rs[j:]...)
	}
	rs[i] = merged
	tx.ranges = rs
	return nil
}

// undoAppend snapshots a range into the active undo segment, growing
// the log with a heap extension when the segment is full (PMDK's undo
// log extensions). Extensions are published in the uncommitted block
// state, so a crash reclaims them automatically after rollback.
func (tx *Tx) undoAppend(off, size uint64) error {
	if size == 0 {
		return nil
	}
	p := tx.p
	need := 16 + align8(size)
	if tx.segUsed+need > tx.segCap {
		extPayload := need + extDataOff
		if min := p.undoCap; extPayload < min {
			extPayload = min
		}
		resv, err := p.heap.reserveAny(p, extPayload)
		if err != nil {
			return fmt.Errorf("undo log extension: %w", err)
		}
		metLogExtends.Inc()
		// Publish the uncommitted header while the block is still in
		// the reserved set, then settle it. The size gets its own fence
		// (a sized state flip must never be seen with a stale size);
		// the state and the segment header share the second fence, both
		// only needing to be durable before the link that makes the
		// segment reachable.
		payload := resv.payloadOff()
		p.dev.WriteU64(resv.blk, resv.size)
		p.dev.Persist(resv.blk, 8)
		p.dev.WriteU64(resv.blk+8, blockUncommitted)
		p.dev.Flush(resv.blk+8, 8)
		p.dev.WriteU64s(payload+extNextOff, []uint64{0, 0})
		p.persist(payload, extDataOff)
		p.heap.unreserve(resv.blk)
		// Link the extension into the chain; the link is the validity
		// point for the new segment.
		var linkField uint64
		if len(tx.exts) == 0 {
			linkField = tx.undoOff + undoExtOff
		} else {
			linkField = tx.exts[len(tx.exts)-1].payloadOff() + extNextOff
		}
		p.dev.WriteU64(linkField, payload)
		p.persist(linkField, 8)

		tx.exts = append(tx.exts, resv)
		tx.segData = payload + extDataOff
		tx.segUsed = 0
		tx.segCap = resv.size - blockHdrSize - extDataOff
		tx.segUsedField = payload + extUsedOff
		if need > tx.segCap {
			return fmt.Errorf("%w: snapshot of %d bytes exceeds extension capacity", ErrLogFull, size)
		}
	}
	p.writeUndoEntry(tx.segData, tx.segUsedField, tx.segUsed, off, size)
	tx.segUsed += need
	tx.undoBytes += size
	return nil
}

// releaseExts returns undo-log extension blocks to the heap after the
// transaction has ended (in either direction).
func (tx *Tx) releaseExts() {
	for _, r := range tx.exts {
		tx.p.heap.releaseBlock(tx.p, r)
	}
	tx.exts = tx.exts[:0]
}

// AddRangeAddr is AddRange for a cleaned virtual address.
func (tx *Tx) AddRangeAddr(addr, size uint64) error {
	off, err := tx.p.OffsetOf(addr)
	if err != nil {
		return err
	}
	return tx.AddRange(off, size)
}

// AddOidRange snapshots the persisted oid stored at off. With SPP this
// covers 24 bytes — the implicit inclusion of the size field in the
// undo log that §IV-F describes.
func (tx *Tx) AddOidRange(off uint64) error {
	return tx.AddRange(off, tx.p.OidPersistedSize())
}

// Alloc reserves a zeroed object inside the transaction
// (pmemobj_tx_alloc). The block is persisted in the uncommitted state:
// recovery from a crash before commit releases it.
func (tx *Tx) Alloc(size uint64) (Oid, error) {
	if tx.done {
		return OidNull, ErrTxDone
	}
	if err := tx.p.checkAllocSize(size); err != nil {
		return OidNull, err
	}
	resv, err := tx.p.heap.reserveAny(tx.p, size)
	if err != nil {
		return OidNull, err
	}
	// Publish the reservation in the uncommitted state. Size first,
	// fence, then state, so the heap walk never sees a sized state
	// change with a stale size. The zeroed payload rides the size
	// fence — it only needs to be durable before the state flip. The
	// block stays in the reserved set until Commit/Abort settles it:
	// its state word is rewritten by the commit redo without any lock
	// held.
	tx.p.dev.Zero(resv.payloadOff(), resv.size-blockHdrSize)
	tx.p.dev.Flush(resv.payloadOff(), resv.size-blockHdrSize)
	tx.p.dev.WriteU64(resv.blk, resv.size)
	tx.p.persist(resv.blk, 8)
	tx.p.dev.WriteU64(resv.blk+8, blockUncommitted)
	tx.p.persist(resv.blk+8, 8)
	tx.allocs = append(tx.allocs, resv)
	return Oid{Pool: tx.p.uuid, Off: resv.payloadOff(), Size: size}, nil
}

// Free releases an object at commit (pmemobj_tx_free). Freeing an
// object allocated by this same transaction releases it immediately.
func (tx *Tx) Free(oid Oid) error {
	if tx.done {
		return ErrTxDone
	}
	blk, err := tx.p.validateOid(oid)
	if err != nil {
		return err
	}
	for i, r := range tx.allocs {
		if r.blk == blk {
			tx.p.heap.releaseBlock(tx.p, r)
			tx.allocs = append(tx.allocs[:i], tx.allocs[i+1:]...)
			return nil
		}
	}
	if tx.p.dev.ReadU64(blk+8) != blockAllocated {
		return fmt.Errorf("%w: tx free of foreign uncommitted block", ErrBadOid)
	}
	tx.frees = append(tx.frees, blk)
	return nil
}

// Realloc resizes an object transactionally (pmemobj_tx_realloc): a
// new block is reserved, the payload moved, and the old block freed at
// commit. Aborting restores the original object untouched.
func (tx *Tx) Realloc(oid Oid, size uint64) (Oid, error) {
	if tx.done {
		return OidNull, ErrTxDone
	}
	blk, err := tx.p.validateOid(oid)
	if err != nil {
		return OidNull, err
	}
	newOid, err := tx.Alloc(size)
	if err != nil {
		return OidNull, err
	}
	oldPayload := tx.p.dev.ReadU64(blk) - blockHdrSize
	copyLen := oldPayload
	if size < copyLen {
		copyLen = size
	}
	tx.p.dev.WriteBytes(newOid.Off, tx.p.dev.ReadBytes(oid.Off, copyLen))
	tx.p.dev.Persist(newOid.Off, copyLen)
	if err := tx.Free(oid); err != nil {
		return OidNull, err
	}
	return newOid, nil
}

// Commit makes every change of the transaction durable and atomic.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.end()
	p := tx.p

	// 1. Make all stores into snapshotted ranges — and into objects
	// allocated by this transaction — durable. The accumulator merges
	// ranges that share cachelines (dedup already merged adjacent
	// snapshots, but allocs and ranges still collide) and the fence is
	// shared with concurrent committers. Under tracing the coalesce
	// pass and the fence wait report as separate phases: the fence is
	// where a traced request waits on *other* lanes' epochs.
	var t0 time.Time
	if tx.tr != nil {
		t0 = time.Now()
	}
	s := p.getScratch()
	for _, r := range tx.ranges {
		s.ac.Flush(r.off, r.size)
	}
	for _, r := range tx.allocs {
		s.ac.Flush(r.blk+blockHdrSize, r.size-blockHdrSize)
	}
	s.ac.Drain()
	p.putScratch(s)
	if tx.tr != nil {
		now := time.Now()
		tx.tr.Add(trace.PhaseFlush, now.Sub(t0))
		t0 = now
	}
	p.fence()
	if tx.tr != nil {
		now := time.Now()
		tx.tr.Add(trace.PhaseFence, now.Sub(t0))
		t0 = now
	}

	// 2. Prepare (but do not apply) the redo log with the allocation
	// state flips and deferred frees. Its extension segments come first,
	// while every free block is still on the lists (reserveRedoExts has
	// the reason); a transaction that cannot have them cannot commit
	// atomically and aborts. Every block the redo will touch is in the
	// reserved sets: the tx allocs never left them, and planFree enters
	// each freed span.
	redoExts, err := p.reserveRedoExts(len(tx.allocs) + 2*len(tx.frees))
	if err != nil {
		if err2 := tx.rollback(); err2 != nil {
			return err2
		}
		return err
	}
	for _, r := range tx.allocs {
		tx.entries = append(tx.entries, redoEntry{r.blk + 8, blockAllocated})
	}
	for _, blk := range tx.frees {
		size := p.dev.ReadU64(blk)
		merged := p.heap.planFree(p, blk, size)
		tx.entries = append(tx.entries, redoEntry{blk, merged}, redoEntry{blk + 8, blockFree})
		tx.freePlans = append(tx.freePlans, mergedFree{blk, size, merged})
	}
	if len(tx.entries) > 0 {
		p.prepareRedo(tx.laneOff, tx.entries, redoExts)
	}

	// 3. Commit point: invalidate the undo log. The state flip and the
	// used reset keep separate fences: collapsing them would admit a
	// crash image with used=0 durable while the state is still active,
	// where rollback restores nothing but the prepared redo is
	// discarded.
	p.dev.WriteU64(tx.undoOff+undoStateOff, undoInactive)
	p.persist(tx.undoOff+undoStateOff, 8)
	p.dev.WriteU64(tx.undoOff+undoUsedOff, 0)
	p.persist(tx.undoOff+undoUsedOff, 8)

	// 4. Complete the heap updates.
	if len(tx.entries) > 0 {
		p.applyRedo(tx.laneOff)
		p.releaseRedoExts(redoExts)
	}
	// Transactional allocations and frees take effect here, so this is
	// where they join the atomic ones in the alloc/free series; an
	// aborted transaction's never count.
	var allocBytes uint64
	for _, r := range tx.allocs {
		p.heap.unreserve(r.blk)
		p.heap.usedBytes.Add(r.size)
		p.heap.usedBlocks.Add(1)
		allocBytes += r.size
	}
	metAllocs.Add(uint64(len(tx.allocs)))
	metAllocBytes.Add(allocBytes)
	for _, f := range tx.freePlans {
		p.heap.finishFree(f.blk, f.merged)
		subUsed(&p.heap.usedBytes, f.size)
		subUsed(&p.heap.usedBlocks, 1)
	}
	metFrees.Add(uint64(len(tx.freePlans)))
	tx.releaseExts()
	metTxCommit.Inc()
	metUndoBytes.Observe(tx.undoBytes)
	telemetry.Flight.Record(telemetry.EvTxCommit, uint64(tx.lane), tx.undoBytes)
	// Everything after the fence — redo preparation, the commit point,
	// heap settlement — is the commit phase proper.
	if tx.tr != nil {
		tx.tr.Add(trace.PhaseTxCommit, time.Since(t0))
	}
	return nil
}

// Abort rolls the transaction back: snapshotted ranges are restored
// and reserved blocks are released.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.end()
	metTxAbort.Inc()
	telemetry.Flight.Record(telemetry.EvTxAbort, uint64(tx.lane), 0)
	return tx.rollback()
}

// end hands back what a finished transaction borrowed: the lane's
// scratch, emptied and cut off from the handle, then the lane.
func (tx *Tx) end() {
	tx.txScratch.reset()
	tx.txScratch = nil
	tx.p.lanes.release(tx.lane)
}

func (tx *Tx) rollback() error {
	p := tx.p
	p.discardRedo(tx.laneOff)
	if err := p.rollbackUndo(tx.undoOff); err != nil {
		return err
	}
	tx.releaseExts()
	for _, r := range tx.allocs {
		p.heap.releaseBlock(p, r)
	}
	tx.allocs = tx.allocs[:0]
	return nil
}
