package pmemobj

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// The heap is organized as N arenas — contiguous address ranges of the
// persistent heap, each with its own mutex, size-class free lists and
// O(1) membership index. Allocations are goroutine-affine: a sync.Pool
// hint remembers the arena a worker last succeeded in, so concurrent
// allocators spread across arenas and the common path takes exactly one
// uncontended lock. When an arena runs dry the request steals from the
// neighbors (hint+1, hint+2, ...) before falling back to a compaction
// pass over the whole heap.
//
// Persistent state lives only in the block headers; arena membership
// and free lists are volatile and rebuilt on open. A block is owned by
// the arena containing its START offset; blocks may extend past their
// arena's end (rebuild avoids creating such blocks, but a neighboring
// merge or a whole-heap compaction can).
//
// In-flux blocks and the reserved set. Between picking a block and the
// redo publication that settles it, a block's persistent header
// disagrees with the volatile truth (a reservation's header still
// reads free; a freed block's forward-merge victim is off the lists
// but still reads free). Every such block is entered into its arena's
// reserved set, mapping start offset -> current span. Whole-heap walks
// (compaction, ForEachAllocated) hold all arena locks and treat a
// reserved entry as an allocated block of that span, overriding
// whatever the headers under it say. The memory-model contract: header
// bytes inside a reserved span may be written without any lock held;
// the matching unreserve/finish call takes the arena lock, which
// publishes those writes to every later walk.
//
// Lock hierarchy: a data-path operation holds at most one arena lock;
// the only place a second is taken is the split-remainder handoff,
// which always locks a strictly higher-indexed arena. Whole-heap walks
// take all arena locks in ascending index order. The pmem device's
// internal locks are below all arena locks.

// minArenaSpan keeps arenas from becoming too small to be useful; the
// arena count is clamped so each spans at least this much heap.
const minArenaSpan = 64 << 10

// freeRef locates a free block inside its arena's lists: the size
// bucket and the block's index within it, for O(1) removal.
type freeRef struct {
	size uint64
	idx  int
}

// arena is one lockable shard of the heap.
type arena struct {
	mu     sync.Mutex
	lo, hi uint64
	// bm holds every free block up to smallClassMax in per-class stacks
	// indexed by hierarchical bitmaps (fbits.go); free and freeSet list
	// only the rare larger blocks.
	bm      *classPools
	free    map[uint64][]uint64 // block size -> block offsets
	freeSet map[uint64]freeRef  // block offset -> list position
	nFree   int                 // live free-listed blocks (both structures)
	// reserved maps the start offset of every in-flux block owned by
	// this arena to its current span. See the package comment above.
	reserved map[uint64]uint64
}

func (a *arena) contains(off uint64) bool { return off >= a.lo && off < a.hi }

func (a *arena) addFree(off, size uint64) {
	a.nFree++
	if size <= smallClassMax {
		a.bm.push(a.lo, off, size)
		return
	}
	bucket := a.free[size]
	a.freeSet[off] = freeRef{size: size, idx: len(bucket)}
	a.free[size] = append(bucket, off)
}

// removeFree unlinks a free block in O(1). A small block's slot bit is
// cleared and its stack entry left to lazy discard; for a large block
// the freeSet index names its bucket slot and the bucket's last element
// is swapped into the hole.
func (a *arena) removeFree(off, size uint64) {
	if size <= smallClassMax {
		if a.bm.take(a.lo, off) {
			a.nFree--
		}
		return
	}
	ref, ok := a.freeSet[off]
	if !ok {
		return
	}
	a.nFree--
	delete(a.freeSet, off)
	bucket := a.free[ref.size]
	last := len(bucket) - 1
	if moved := bucket[last]; moved != off {
		bucket[ref.idx] = moved
		a.freeSet[moved] = freeRef{size: ref.size, idx: ref.idx}
	}
	bucket = bucket[:last]
	if len(bucket) == 0 {
		delete(a.free, ref.size)
	} else {
		a.free[ref.size] = bucket
	}
}

// freeSizeAt reports whether a live free-listed block starts at off,
// and its size. Caller holds a.mu.
func (a *arena) freeSizeAt(p *Pool, off uint64) (uint64, bool) {
	if a.bm.testSlot(a.lo, off) {
		// The slot bit guarantees the persistent header is the free
		// size (see fbits.go).
		return p.dev.ReadU64(off), true
	}
	if ref, ok := a.freeSet[off]; ok {
		return ref.size, true
	}
	return 0, false
}

// pick returns the best free block for a request of need bytes: exact
// fit if available, else the smallest larger block. Caller holds a.mu.
func (a *arena) pick(p *Pool, need uint64) (size, off uint64, ok bool) {
	if need <= smallClassMax {
		if off, size, ok := a.bm.pickSmall(p, a.lo, need); ok {
			return size, off, true
		}
	}
	// Small classes dry (or the request is large): the large lists.
	best := ^uint64(0)
	for s := range a.free {
		if s >= need && s < best {
			best = s
		}
	}
	if best == ^uint64(0) {
		return 0, 0, false
	}
	bucket := a.free[best]
	return best, bucket[len(bucket)-1], true
}

// reset clears the free lists for repopulation. The reserved set is
// preserved: it is the volatile truth for in-flux blocks and outlives
// any rebuild of the lists.
func (a *arena) reset() {
	a.free = map[uint64][]uint64{}
	a.freeSet = map[uint64]freeRef{}
	a.nFree = 0
	a.bm.reset()
}

// arenaHint is a worker's remembered arena, recycled through a
// sync.Pool. It carries only an index — losing one to the GC costs
// nothing but affinity.
type arenaHint struct {
	idx uint32
}

// heap manages the persistent heap across its arenas.
type heap struct {
	lo, hi uint64
	span   uint64
	arenas []arena

	usedBytes  atomic.Uint64
	usedBlocks atomic.Uint64

	rotor atomic.Uint32 // round-robin seed for fresh hints
	hints sync.Pool     // *arenaHint

	// arenaMet caches the per-arena reservation counters so the hot
	// path never formats a label.
	arenaMet []*telemetry.Counter
}

func (h *heap) init(lo, hi uint64, nArenas int) {
	h.lo, h.hi = lo, hi
	total := hi - lo
	n := nArenas
	if n < 1 {
		n = 1
	}
	if max := int(total / minArenaSpan); n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	span := (total / uint64(n)) &^ (blockAlign - 1)
	if span < minBlockSize {
		n, span = 1, total
	}
	h.span = span
	h.arenas = make([]arena, n)
	for i := range h.arenas {
		a := &h.arenas[i]
		a.lo = lo + uint64(i)*span
		a.hi = a.lo + span
		if i == n-1 {
			a.hi = hi
		}
		a.bm = newClassPools(a.hi - a.lo)
		a.reset()
		a.reserved = map[uint64]uint64{}
	}
	h.arenaMet = arenaCounters(n)
}

func (h *heap) arenaIdx(off uint64) int {
	i := int((off - h.lo) / h.span)
	if i >= len(h.arenas) {
		i = len(h.arenas) - 1
	}
	return i
}

func (h *heap) arenaOf(off uint64) *arena { return &h.arenas[h.arenaIdx(off)] }

func (h *heap) lockAll() {
	for i := range h.arenas {
		h.arenas[i].mu.Lock()
	}
}

func (h *heap) unlockAll() {
	for i := len(h.arenas) - 1; i >= 0; i-- {
		h.arenas[i].mu.Unlock()
	}
}

func (h *heap) getHint() *arenaHint {
	if v := h.hints.Get(); v != nil {
		return v.(*arenaHint)
	}
	return &arenaHint{idx: (h.rotor.Add(1) - 1) % uint32(len(h.arenas))}
}

// reservation is a block picked for an allocation but not yet
// published: its header still reads as free (or carries the previous
// state), so a crash before publication loses nothing. The block stays
// in its arena's reserved set until the owner settles it.
type reservation struct {
	blk  uint64 // block header offset
	size uint64 // block size to publish (header included)
}

func (r reservation) payloadOff() uint64 { return r.blk + blockHdrSize }

// reserveAny picks (and if profitable splits) a free block for a
// payload of the given size, trying the goroutine's affine arena
// first, then stealing from neighbors, then compacting — first within
// arena boundaries, then across the whole heap for requests no single
// arena can hold.
func (h *heap) reserveAny(p *Pool, payload uint64) (reservation, error) {
	need := align16(payload) + blockHdrSize
	if need < payload { // overflow
		return reservation{}, ErrObjectTooBig
	}
	need = classSize(need)

	if r, ok := h.tryReserve(p, need); ok {
		return r, nil
	}
	// Free-at-time coalescing only merges forward within an arena;
	// defragment each arena before giving up.
	if err := h.compactAll(p, true); err != nil {
		return reservation{}, err
	}
	if r, ok := h.tryReserve(p, need); ok {
		return r, nil
	}
	// A request larger than any per-arena run needs whole-heap runs:
	// compact again without cutting at arena boundaries.
	if err := h.compactAll(p, false); err != nil {
		return reservation{}, err
	}
	if r, ok := h.tryReserve(p, need); ok {
		return r, nil
	}
	return reservation{}, fmt.Errorf("%w: need %d bytes", ErrOutOfMemory, need)
}

// tryReserve probes the arenas starting at the worker's affine hint,
// advancing to the neighbors when one is dry. At most one arena lock is
// held at a time (plus a higher-indexed one inside the split handoff).
func (h *heap) tryReserve(p *Pool, need uint64) (reservation, bool) {
	n := len(h.arenas)
	hint := h.getHint()
	start := int(hint.idx) % n
	for k := 0; k < n; k++ {
		ai := (start + k) % n
		a := &h.arenas[ai]
		a.mu.Lock()
		r, ok := h.reserveIn(p, a, need)
		a.mu.Unlock()
		if telemetry.On() && k > 0 {
			distCounter(&stealAttemptByDist, k).Inc()
			if ok {
				distCounter(&stealOKByDist, k).Inc()
			}
		}
		if ok {
			if telemetry.On() {
				h.arenaMet[ai].Inc()
			}
			if k > 0 {
				telemetry.Flight.Record(telemetry.EvSteal, uint64(ai), uint64(k))
			}
			hint.idx = uint32(ai)
			h.hints.Put(hint)
			return r, true
		}
	}
	h.hints.Put(hint)
	return reservation{}, false
}

// reserveIn carves a block of exactly need bytes out of arena a.
// Caller holds a.mu. The chosen block enters a.reserved before any
// header is touched; if the pick is split, the remainder's header is
// persisted and the remainder is handed to the arena owning its start
// offset (always this one or a higher-indexed one, keeping lock
// acquisition ascending).
func (h *heap) reserveIn(p *Pool, a *arena, need uint64) (reservation, bool) {
	size, off, ok := a.pick(p, need)
	if !ok {
		return reservation{}, false
	}
	a.removeFree(off, size)
	a.reserved[off] = size

	if size-need >= minBlockSize {
		rem := size - need
		remOff := off + need
		p.dev.WriteU64(remOff, rem)
		p.dev.WriteU64(remOff+8, blockFree)
		p.dev.Persist(remOff, blockHdrSize)
		if a.contains(remOff) {
			a.addFree(remOff, rem)
		} else {
			b := h.arenaOf(remOff) // strictly higher index than a
			b.mu.Lock()
			b.addFree(remOff, rem)
			b.mu.Unlock()
		}
		size = need
		a.reserved[off] = need
	}
	return reservation{blk: off, size: size}, true
}

// unreserve settles a reservation whose block header has reached its
// final published state. Taking the arena lock here publishes the
// owner's lock-free header writes to every later whole-heap walk.
func (h *heap) unreserve(blk uint64) {
	a := h.arenaOf(blk)
	a.mu.Lock()
	delete(a.reserved, blk)
	a.mu.Unlock()
}

// markReserved puts an already-published block into the in-flux state
// (realloc does this to the old block before the redo that frees it).
func (h *heap) markReserved(blk, span uint64) {
	a := h.arenaOf(blk)
	a.mu.Lock()
	a.reserved[blk] = span
	a.mu.Unlock()
}

// releaseBlock returns an in-flux block to the free lists, persisting
// a free header of exactly r.size first. It serves both failed
// publications (whose header may still carry the pre-split size) and
// uncommitted blocks being released (tx aborts, log extensions).
func (h *heap) releaseBlock(p *Pool, r reservation) {
	a := h.arenaOf(r.blk)
	a.mu.Lock()
	p.dev.WriteU64(r.blk, r.size)
	p.dev.WriteU64(r.blk+8, blockFree)
	p.dev.Persist(r.blk, blockHdrSize)
	delete(a.reserved, r.blk)
	a.addFree(r.blk, r.size)
	a.mu.Unlock()
}

// planFree prepares to free the published block at blk: a
// forward-adjacent free block in the same arena is absorbed (off the
// lists, merged into the span) and the whole span turns in-flux so
// concurrent walks treat it as live until the redo publication
// settles. Only a neighbor smaller than minArenaSpan is absorbed:
// whatever is absorbed is unallocatable until the redo settles, and a
// larger run can be most of the free space there is (a fresh arena, or
// the remainder of a whole-heap compaction), which a concurrent
// allocator would then be refused while the pool is nearly empty. A
// run that large loses nothing by staying unmerged until the next
// compaction. Returns the merged span.
func (h *heap) planFree(p *Pool, blk, size uint64) (merged uint64) {
	a := h.arenaOf(blk)
	a.mu.Lock()
	merged = size
	next := blk + size
	if next < h.hi && h.arenaOf(next) == a {
		if nsz, ok := a.freeSizeAt(p, next); ok && nsz < minArenaSpan {
			a.removeFree(next, nsz)
			merged += nsz
		}
	}
	a.reserved[blk] = merged
	a.mu.Unlock()
	return merged
}

// finishFree completes a planned free after its redo publication: the
// merged span, now persistently free, joins the lists.
func (h *heap) finishFree(blk, merged uint64) {
	a := h.arenaOf(blk)
	a.mu.Lock()
	delete(a.reserved, blk)
	a.addFree(blk, merged)
	a.mu.Unlock()
}

// walkLocked traverses the heap's block chain. Caller holds all arena
// locks. In-flux blocks are reported as allocated with their reserved
// span — their persistent headers may be mid-rewrite and are neither
// read nor trusted.
func (h *heap) walkLocked(p *Pool, fn func(off, size, state uint64, inFlux bool) error) error {
	for off := h.lo; off < h.hi; {
		if span, ok := h.arenaOf(off).reserved[off]; ok {
			if err := fn(off, span, blockAllocated, true); err != nil {
				return err
			}
			off += span
			continue
		}
		size := p.dev.ReadU64(off)
		state := p.dev.ReadU64(off + 8)
		if size < minBlockSize || size%blockAlign != 0 || off+size > h.hi {
			return fmt.Errorf("%w: block at %#x has size %d", ErrCorruptPool, off, size)
		}
		if state != blockFree && state != blockAllocated && state != blockUncommitted {
			return fmt.Errorf("%w: block at %#x has state %d", ErrCorruptPool, off, state)
		}
		if err := fn(off, size, state, false); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// runPiece is one arena-local slice of a free run.
type runPiece struct {
	off, size uint64
}

// cutRun splits a free run at arena boundaries so each arena's lists
// own locally-contained blocks. A cut that would leave a sliver below
// minBlockSize on either side is skipped (the piece then crosses the
// boundary; reserve handles such blocks). With split=false the run is
// kept whole — the path that serves requests larger than one arena.
func (h *heap) cutRun(start, size uint64, split bool) []runPiece {
	if !split {
		return []runPiece{{start, size}}
	}
	var out []runPiece
	off, rem := start, size
	for {
		end := h.arenaOf(off).hi
		if off+rem <= end || off+rem-end < minBlockSize || end-off < minBlockSize {
			out = append(out, runPiece{off, rem})
			return out
		}
		piece := end - off
		out = append(out, runPiece{off, piece})
		off += piece
		rem -= piece
	}
}

// rebuildLocked walks the heap, merges adjacent free blocks into runs,
// cuts the runs into per-arena pieces and repopulates the free lists.
// Caller holds all arena locks. At open it additionally releases
// blocks left uncommitted by a crash and recounts occupancy; on a live
// pool uncommitted blocks are open-transaction reservations and stay
// allocated, and in-flux spans are skipped via the reserved sets.
//
// Piece headers are persisted in descending address order: a walk
// interrupted by a crash then follows original headers up to the first
// rewritten piece and rewritten headers after it, staying consistent
// at every intermediate state. When crash tracking is off (no
// intermediate states exist) and the machine has spare cores, an
// open-time rebuild populates the arenas in parallel shards instead.
func (h *heap) rebuildLocked(p *Pool, atOpen, split bool) error {
	type run struct {
		start, size uint64
	}
	var runs []run
	orig := make(map[uint64]uint64) // pre-existing free headers: off -> size
	var usedB, usedN uint64
	var runStart, runSize uint64
	var runBlocks int
	closeRun := func() {
		if runBlocks > 0 {
			runs = append(runs, run{runStart, runSize})
			runBlocks, runSize = 0, 0
		}
	}
	err := h.walkLocked(p, func(off, size, state uint64, inFlux bool) error {
		if state == blockUncommitted && atOpen {
			// Reserved by a transaction that never committed.
			p.dev.WriteU64(off+8, blockFree)
			p.dev.Persist(off+8, 8)
			state = blockFree
		}
		if state == blockFree && !inFlux {
			if runBlocks == 0 {
				runStart = off
			}
			runSize += size
			runBlocks++
			orig[off] = size
			return nil
		}
		closeRun()
		usedB += size
		usedN++
		return nil
	})
	if err != nil {
		return err
	}
	closeRun()
	if atOpen {
		h.usedBytes.Store(usedB)
		h.usedBlocks.Store(usedN)
	}

	var pieces []runPiece
	for _, r := range runs {
		pieces = append(pieces, h.cutRun(r.start, r.size, split)...)
	}
	for i := range h.arenas {
		h.arenas[i].reset()
	}
	populate := func(pc runPiece) {
		if orig[pc.off] != pc.size {
			p.dev.WriteU64(pc.off, pc.size)
			p.dev.WriteU64(pc.off+8, blockFree)
			p.dev.Persist(pc.off, blockHdrSize)
		}
		h.arenaOf(pc.off).addFree(pc.off, pc.size)
	}
	if atOpen && !p.dev.Tracking() && len(h.arenas) > 1 && runtime.GOMAXPROCS(0) > 1 {
		byArena := make([][]runPiece, len(h.arenas))
		for _, pc := range pieces {
			i := h.arenaIdx(pc.off)
			byArena[i] = append(byArena[i], pc)
		}
		var wg sync.WaitGroup
		for i := range byArena {
			if len(byArena[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(ps []runPiece) {
				defer wg.Done()
				for _, pc := range ps {
					populate(pc)
				}
			}(byArena[i])
		}
		wg.Wait()
	} else {
		for i := len(pieces) - 1; i >= 0; i-- {
			populate(pieces[i])
		}
	}
	return nil
}

// rebuild is the open-time heap boot: crash-released blocks, merged
// runs, arena population (in parallel shards when tracking is off).
func (h *heap) rebuild(p *Pool) error {
	h.lockAll()
	defer h.unlockAll()
	return h.rebuildLocked(p, true, true)
}

// compactAll defragments the live heap: all arena locks are taken,
// adjacent free blocks are merged persistently and the lists rebuilt.
// In-flux and uncommitted blocks are treated as allocated.
func (h *heap) compactAll(p *Pool, split bool) error {
	metCompactions.Inc()
	var whole uint64
	if !split {
		whole = 1
	}
	telemetry.Flight.Record(telemetry.EvCompact, whole, 0)
	h.lockAll()
	defer h.unlockAll()
	return h.rebuildLocked(p, false, split)
}

// subUsed subtracts from an occupancy counter.
func subUsed(c *atomic.Uint64, n uint64) {
	c.Add(^(n - 1))
}

// classSize rounds a block size up to its allocation class, like
// PMDK's class-based heap: a 128-byte minimum unit, 128-byte steps up
// to 1 KiB and 256-byte steps beyond. Small layout growth — such as
// SPP's extra 8 bytes per embedded oid in tree nodes — is absorbed by
// the class padding, which is why Table III reports ~0% for ctree and
// rbtree while rtree's 256-oid nodes cross into larger classes.
func classSize(need uint64) uint64 {
	switch {
	case need <= 128:
		return 128
	case need <= 1024:
		return (need + 127) &^ 127
	default:
		return (need + 255) &^ 255
	}
}

// checkAllocSize validates a requested object size against the pool
// configuration.
func (p *Pool) checkAllocSize(size uint64) error {
	if size == 0 {
		return ErrZeroSizeAlloc
	}
	if p.spp && size > p.enc.MaxObjectSize() {
		return fmt.Errorf("%w: %d > %d (tag bits %d)", ErrObjectTooBig, size, p.enc.MaxObjectSize(), p.enc.TagBits())
	}
	return nil
}

// allocEntries returns the redo entries that publish a reservation as
// an allocated block.
func allocEntries(r reservation) []redoEntry {
	return []redoEntry{
		{r.blk, r.size},
		{r.blk + 8, blockAllocated},
	}
}

// destOidEntries returns the redo entries that publish an oid into a
// persistent destination. The size field precedes the offset field —
// the SPP ordering requirement of §IV-F.
func (p *Pool) destOidEntries(destOff uint64, oid Oid) []redoEntry {
	if p.packed {
		// The packed layout publishes offset and size in one word.
		return []redoEntry{
			{destOff + oidPoolField, oid.Pool},
			{destOff + oidOffField, p.PackOff(oid.Off, oid.Size)},
		}
	}
	var entries []redoEntry
	if p.spp {
		entries = append(entries, redoEntry{destOff + oidSizeField, oid.Size})
	}
	entries = append(entries,
		redoEntry{destOff + oidPoolField, oid.Pool},
		redoEntry{destOff + oidOffField, oid.Off},
	)
	return entries
}

// Alloc atomically allocates a zeroed object of the given size and
// returns its oid to the (volatile) caller — pmemobj_alloc with a
// stack-resident destination.
func (p *Pool) Alloc(size uint64) (Oid, error) {
	oid, _, err := p.allocCommon(size, nil)
	return oid, err
}

// AllocAt atomically allocates a zeroed object and publishes its oid
// into the pool at destOff, all through one redo log: either the
// destination holds the complete oid (size before offset) or the
// allocation never happened.
func (p *Pool) AllocAt(destOff, size uint64) error {
	_, _, err := p.allocCommon(size, &destOff)
	return err
}

func (p *Pool) allocCommon(size uint64, destOff *uint64) (Oid, reservation, error) {
	if err := p.checkAllocSize(size); err != nil {
		return OidNull, reservation{}, err
	}
	lane := p.lanes.acquire()
	defer p.lanes.release(lane)

	resv, err := p.heap.reserveAny(p, size)
	if err != nil {
		return OidNull, reservation{}, err
	}
	p.dev.Zero(resv.payloadOff(), resv.size-blockHdrSize)
	p.dev.Persist(resv.payloadOff(), resv.size-blockHdrSize)

	oid := Oid{Pool: p.uuid, Off: resv.payloadOff(), Size: size}
	entries := allocEntries(resv)
	if destOff != nil {
		entries = append(entries, p.destOidEntries(*destOff, oid)...)
	}
	if err := p.publishRedo(p.laneOff(lane), entries); err != nil {
		// Publication failed before the committed flag: hand the block
		// back; no allocated state was ever persisted.
		p.heap.releaseBlock(p, resv)
		return OidNull, reservation{}, err
	}
	p.heap.unreserve(resv.blk)
	p.heap.usedBytes.Add(resv.size)
	p.heap.usedBlocks.Add(1)
	metAllocs.Inc()
	metAllocBytes.Add(resv.size)
	metBlockSize.Observe(resv.size)
	telemetry.Flight.Record(telemetry.EvAlloc, resv.payloadOff(), resv.size)
	return oid, resv, nil
}

// Free atomically releases the object behind oid (pmemobj_free with a
// volatile oid variable).
func (p *Pool) Free(oid Oid) error {
	return p.freeCommon(oid, nil)
}

// FreeAt atomically releases the object whose oid is stored at destOff
// and clears the stored oid, all in one redo log.
func (p *Pool) FreeAt(destOff uint64) error {
	oid := p.ReadOid(destOff)
	return p.freeCommon(oid, &destOff)
}

func (p *Pool) freeCommon(oid Oid, destOff *uint64) error {
	blk, err := p.validateOid(oid)
	if err != nil {
		return err
	}
	lane := p.lanes.acquire()
	defer p.lanes.release(lane)

	// The log's extension segments, if it needs any, are reserved
	// before planFree hides the block's free neighbor from the lists.
	var destEntries []redoEntry
	if destOff != nil {
		destEntries = p.destOidEntries(*destOff, OidNull)
	}
	exts, err := p.reserveRedoExts(2 + len(destEntries))
	if err != nil {
		return err
	}
	size := p.dev.ReadU64(blk)
	merged := p.heap.planFree(p, blk, size)
	entries := append([]redoEntry{{blk, merged}, {blk + 8, blockFree}}, destEntries...)
	p.prepareRedo(p.laneOff(lane), entries, exts)
	p.applyRedo(p.laneOff(lane))
	p.releaseRedoExts(exts)
	p.heap.finishFree(blk, merged)
	subUsed(&p.heap.usedBytes, size)
	subUsed(&p.heap.usedBlocks, 1)
	metFrees.Inc()
	telemetry.Flight.Record(telemetry.EvFree, blk, merged)
	return nil
}

// Realloc atomically resizes the object behind oid, returning the new
// oid to a volatile caller.
func (p *Pool) Realloc(oid Oid, size uint64) (Oid, error) {
	return p.reallocCommon(oid, size, nil)
}

// ReallocAt atomically resizes the object whose oid is stored at
// destOff, publishing the entire new oid through the redo log — the
// paper's "entire PMEMoid structure is captured in a log" (§IV-F).
func (p *Pool) ReallocAt(destOff, size uint64) error {
	oid := p.ReadOid(destOff)
	if oid.IsNull() {
		return p.AllocAt(destOff, size)
	}
	_, err := p.reallocCommon(oid, size, &destOff)
	return err
}

func (p *Pool) reallocCommon(oid Oid, size uint64, destOff *uint64) (Oid, error) {
	if err := p.checkAllocSize(size); err != nil {
		return OidNull, err
	}
	blk, err := p.validateOid(oid)
	if err != nil {
		return OidNull, err
	}
	lane := p.lanes.acquire()
	defer p.lanes.release(lane)

	oldSize := p.dev.ReadU64(blk)
	newOid := Oid{Pool: p.uuid, Off: oid.Off, Size: size}
	if align16(size)+blockHdrSize == oldSize {
		// Same block footprint: only the logical size changes.
		var entries []redoEntry
		if destOff != nil {
			entries = p.destOidEntries(*destOff, newOid)
		}
		if len(entries) > 0 {
			if err := p.publishRedo(p.laneOff(lane), entries); err != nil {
				return OidNull, err
			}
		}
		metReallocs.Inc()
		return newOid, nil
	}

	resv, err := p.heap.reserveAny(p, size)
	if err != nil {
		return OidNull, err
	}
	// Move the payload before publication; the copy targets a block
	// that is still free, so a crash loses nothing.
	copyLen := oldSize - blockHdrSize
	if newPayload := resv.size - blockHdrSize; newPayload < copyLen {
		copyLen = newPayload
	}
	p.dev.WriteBytes(resv.payloadOff(), p.dev.ReadBytes(blk+blockHdrSize, copyLen))
	if grow := resv.size - blockHdrSize - copyLen; grow > 0 {
		p.dev.Zero(resv.payloadOff()+copyLen, grow)
	}
	p.dev.Persist(resv.payloadOff(), resv.size-blockHdrSize)

	// The old block turns in-flux before the redo that frees it: its
	// header is rewritten by applyRedo without any lock held.
	p.heap.markReserved(blk, oldSize)

	newOid.Off = resv.payloadOff()
	entries := append(allocEntries(resv), redoEntry{blk + 8, blockFree})
	if destOff != nil {
		entries = append(entries, p.destOidEntries(*destOff, newOid)...)
	}
	if err := p.publishRedo(p.laneOff(lane), entries); err != nil {
		p.heap.unreserve(blk)
		p.heap.releaseBlock(p, resv)
		return OidNull, err
	}
	p.heap.unreserve(resv.blk)
	p.heap.finishFree(blk, oldSize)
	p.heap.usedBytes.Add(resv.size - oldSize)
	metReallocs.Inc()
	metBlockSize.Observe(resv.size)
	telemetry.Flight.Record(telemetry.EvAlloc, resv.payloadOff(), resv.size)
	return newOid, nil
}
