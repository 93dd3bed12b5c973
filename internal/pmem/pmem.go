// Package pmem models a byte-addressable persistent memory device.
//
// A Pool is the analog of a DAX-mapped PM file: a flat byte region with
// explicit persistence operations. Stores land in the "CPU cache" (the
// working image) immediately; they become durable only after a Flush of
// their range followed by a Fence — the CLWB/SFENCE discipline that
// PMDK's crash-consistency protocol is built on and that pmemcheck
// verifies.
//
// With tracking enabled the pool keeps a separate durable image and an
// event trace (stores, flushes, fences), which the pmemcheck package
// replays to explore crash states. With tracking disabled every store
// is immediately durable and the pool runs at full speed for the
// performance experiments.
//
// Concurrency. With tracking off the device is lock-free: a store,
// flush or fence loads one atomic gate word (tracking and telemetry
// bits) and takes no mutex. With tracking on, every store brackets its
// byte write (BeginStore/EndStore) with a read hold of the mode RWMutex,
// and Fence, GroupFence, Crash and DurableImage hold mode for write, so
// a fence's copy of flushed lines is ordered against every store, even
// one to other bytes of the same cacheline. Pending flushes sit under
// one small mutex taken inside mode: a tracked fence takes two locks.
// EnableTracking, DisableTracking and Crash need a quiescent data path
// (no store, flush or fence in flight, ordered by the caller).
package pmem

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Device telemetry: store/flush/fence rates split by whether the
// lock-free fast path (tracking off) or the tracked slow path served
// them. The device's data path is the hottest code in the repo (~5 ns
// per store+flush+fence), where even one extra predicted branch is
// measurable, so the telemetry gate shares the single atomic word the
// data path already loads for the tracking check (see Pool.gates):
// with both off, Store/Flush/Fence execute instruction-for-instruction
// what they did before telemetry existed. The telemetry bit is latched
// at pool creation; enable telemetry before building the device to get
// device-op counters (sppbench does this at startup).
var (
	devStores     = telemetry.Default.CounterVec("spp_dev_stores_total", "device stores by path", "path")
	devStoreBytes = telemetry.Default.CounterVec("spp_dev_store_bytes_total", "device store bytes by path", "path")
	devFlushes    = telemetry.Default.Counter("spp_dev_flushes_total", "cacheline flushes issued")
	devFences     = telemetry.Default.Counter("spp_dev_fences_total", "store fences issued")

	devStoresFast    = devStores.With("fast")
	devStoresTracked = devStores.With("tracked")
	devBytesFast     = devStoreBytes.With("fast")
	devBytesTracked  = devStoreBytes.With("tracked")

	// Batched-pipeline telemetry: flush requests a FlushAccum merged
	// away before reaching the device, and fences answered by another
	// committer's fence through the GroupFence combiner.
	devFlushCoalesced = telemetry.Default.Counter("spp_dev_flushes_coalesced_total", "flush requests merged by a flush accumulator")
	devFencesShared   = telemetry.Default.Counter("spp_dev_fences_shared_total", "fences satisfied by another goroutine's fence via the group combiner")
)

// CachelineSize is the flush granularity of the simulated device.
const CachelineSize = 64

// StoreAtomicity is the size in bytes up to which an aligned store is
// failure-atomic, matching the 8-byte powerfail atomicity of real PM.
const StoreAtomicity = 8

// ErrTrackingDisabled is returned by crash-simulation entry points when
// the pool is running in performance mode.
var ErrTrackingDisabled = errors.New("pmem: persistence tracking is disabled")

// TraceSink receives the persistence event stream of a tracked pool.
type TraceSink interface {
	// RecordStore is called after data is written at off. The slice is
	// owned by the sink.
	RecordStore(off uint64, data []byte)
	// RecordFlush is called when [off, off+size) is flushed.
	RecordFlush(off, size uint64)
	// RecordFence is called on a store fence.
	RecordFence()
}

type flushRange struct {
	off, size uint64
}

// Bits of Pool.gates.
const (
	gateTracking = 1 << iota // crash-simulation mode is on
	gateTelem                // count device ops into the telemetry registry
)

// Pool is a simulated persistent memory pool.
type Pool struct {
	data []byte
	name string

	// gates is the fast-path gate word: one atomic load on every
	// Store/Flush/Fence covers both the tracking check and the
	// telemetry check, so the all-off path costs exactly what a single
	// tracking flag did. gateTelem is latched from the global telemetry
	// flag at pool creation and never changes; a pool created before
	// telemetry.Enable does not count device ops, so consumers that
	// want them (sppbench, the bench experiments) enable telemetry
	// before building the device. gateTracking is toggled by
	// Enable/DisableTracking under the mode lock.
	gates atomic.Uint32

	// mode is held for read by every tracked store across its byte
	// write and for write by fences and mode transitions. The fields
	// below it are valid only while tracking is on.
	mode      sync.RWMutex
	persisted []byte // durable image
	sink      TraceSink

	pendMu  sync.Mutex
	pending []flushRange // flushed, not yet fenced

	// fenceEpoch counts fences that have started; it is bumped only
	// under the mode write lock and read by GroupFence before it.
	fenceEpoch atomic.Uint64
}

// NewPool returns an in-memory pool of the given size with tracking
// disabled.
func NewPool(name string, size uint64) *Pool {
	p := &Pool{data: make([]byte, size), name: name}
	if telemetry.On() {
		p.gates.Store(gateTelem)
	}
	return p
}

// OpenFile loads a pool image from path, or creates a zeroed pool of
// the given size if the file does not exist.
func OpenFile(path string, size uint64) (*Pool, error) {
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if uint64(len(b)) != size {
			return nil, fmt.Errorf("pmem: %s: image is %d bytes, want %d", path, len(b), size)
		}
		p := &Pool{data: b, name: path}
		if telemetry.On() {
			p.gates.Store(gateTelem)
		}
		return p, nil
	case os.IsNotExist(err):
		return NewPool(path, size), nil
	default:
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	}
}

// SaveFile writes the working image to path.
func (p *Pool) SaveFile(path string) error {
	if err := os.WriteFile(path, p.data, 0o644); err != nil {
		return fmt.Errorf("pmem: save %s: %w", path, err)
	}
	return nil
}

// Name returns the pool's identifier.
func (p *Pool) Name() string { return p.name }

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return uint64(len(p.data)) }

// Data exposes the working image. It is the slice to hand to
// vmem.Mapping so the pool appears in the simulated address space.
func (p *Pool) Data() []byte { return p.data }

// EnableTracking switches the pool into crash-simulation mode: the
// current working image becomes the durable image and all subsequent
// stores/flushes/fences are reported to sink (which may be nil to track
// durability only). Like snapshotting real memory, the transition
// requires a quiescent data path: no store, flush or fence may be in
// flight while the image is copied.
func (p *Pool) EnableTracking(sink TraceSink) {
	p.mode.Lock()
	defer p.mode.Unlock()
	p.sink = sink
	p.persisted = make([]byte, len(p.data))
	copyNonZero(p.persisted, p.data)
	p.pending = nil
	// Publish last: a reader that observes tracking=true also sees the
	// fields above.
	p.gates.Store(p.gates.Load() | gateTracking)
}

// DisableTracking returns the pool to performance mode. The working
// image is kept; the durable image and any pending flushes are dropped.
// Like EnableTracking it requires a quiescent data path.
func (p *Pool) DisableTracking() {
	p.mode.Lock()
	defer p.mode.Unlock()
	p.gates.Store(p.gates.Load() &^ gateTracking)
	p.sink = nil
	p.persisted = nil
	p.pending = nil
}

// zeroPage is the unit copyNonZero skips.
var zeroPage [4096]byte

// copyNonZero copies src into dst, which must be zero, skipping the
// pages of src that are zero too: the untouched bulk of a fresh pool
// then costs the durable image neither a copy nor a write fault.
func copyNonZero(dst, src []byte) {
	for off := 0; off < len(src); off += len(zeroPage) {
		c := src[off:min(off+len(zeroPage), len(src))]
		if !bytes.Equal(c, zeroPage[:len(c)]) {
			copy(dst[off:], c)
		}
	}
}

// Tracking reports whether crash-simulation mode is on.
func (p *Pool) Tracking() bool {
	return p.gates.Load()&gateTracking != 0
}

// BeginStore opens a store to [off, off+size) and EndStore, handed its
// result, closes it; every write to the working image happens between
// the two. With tracking on the store holds mode for read, so no fence
// copies a line while its bytes are being written. The pair implements
// vmem.StoreObserver, so application stores through the simulated
// address space are bracketed and traced too.
func (p *Pool) BeginStore(off, size uint64) bool {
	g := p.gates.Load()
	if g == 0 {
		return false
	}
	return p.beginStore(g, size)
}

// beginStore is BeginStore's out-of-line part, so that BeginStore stays
// small enough to inline into every writer's fast path. It counts the
// store into telemetry and, with tracking on, takes mode for read.
func (p *Pool) beginStore(g uint32, size uint64) bool {
	if g&gateTracking == 0 {
		devStoresFast.Inc()
		devBytesFast.Add(size)
		return false
	}
	if g&gateTelem != 0 {
		devStoresTracked.Inc()
		devBytesTracked.Add(size)
	}
	p.mode.RLock()
	return true
}

// EndStore closes a store opened by BeginStore and reports it to the
// trace sink.
func (p *Pool) EndStore(off, size uint64, began bool) {
	if began {
		p.endStore(off, size)
	}
}

// endStore is EndStore's out-of-line part, for the same reason.
func (p *Pool) endStore(off, size uint64) {
	sink := p.sink
	var cp []byte
	if sink != nil {
		cp = make([]byte, size)
		copy(cp, p.data[off:off+size])
	}
	p.mode.RUnlock()
	if sink != nil {
		sink.RecordStore(off, cp)
	}
}

// ReadU64 reads a little-endian 64-bit value at off.
func (p *Pool) ReadU64(off uint64) uint64 {
	b := p.data[off : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// WriteU64 writes a little-endian 64-bit value at off.
func (p *Pool) WriteU64(off uint64, v uint64) {
	began := p.BeginStore(off, 8)
	b := p.data[off : off+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
	p.EndStore(off, 8, began)
}

// WriteU64s writes consecutive little-endian 64-bit values starting at
// off — the bulk log-write path. With tracking off the whole run is one
// store (one gate check, one telemetry event of len(vals)*8 bytes); with
// tracking on it falls back to per-word WriteU64 so the persistence
// trace keeps the exact 8-byte store sequence pmemcheck's atomicity
// model expects.
func (p *Pool) WriteU64s(off uint64, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	if p.gates.Load()&gateTracking != 0 {
		for i, v := range vals {
			p.WriteU64(off+uint64(i)*8, v)
		}
		return
	}
	size := uint64(len(vals)) * 8
	began := p.BeginStore(off, size)
	b := p.data[off : off+size]
	for i, v := range vals {
		e := b[i*8 : i*8+8]
		e[0] = byte(v)
		e[1] = byte(v >> 8)
		e[2] = byte(v >> 16)
		e[3] = byte(v >> 24)
		e[4] = byte(v >> 32)
		e[5] = byte(v >> 40)
		e[6] = byte(v >> 48)
		e[7] = byte(v >> 56)
	}
	p.EndStore(off, size, began)
}

// ReadBytes copies size bytes at off into a fresh slice.
func (p *Pool) ReadBytes(off, size uint64) []byte {
	out := make([]byte, size)
	copy(out, p.data[off:off+size])
	return out
}

// WriteBytes writes b at off.
func (p *Pool) WriteBytes(off uint64, b []byte) {
	began := p.BeginStore(off, uint64(len(b)))
	copy(p.data[off:], b)
	p.EndStore(off, uint64(len(b)), began)
}

// Zero clears [off, off+size).
func (p *Pool) Zero(off, size uint64) { p.Fill(off, size, 0) }

// Fill sets every byte of [off, off+size) to v as one store.
func (p *Pool) Fill(off, size uint64, v byte) {
	began := p.BeginStore(off, size)
	region := p.data[off : off+size]
	switch {
	case v == 0:
		clear(region)
	case size < CachelineSize:
		for i := range region {
			region[i] = v
		}
	default:
		// Double a filled prefix, so that a large fill (SafePM poisons
		// its whole heap's shadow) runs at copy speed.
		region[0] = v
		for n := 1; n < len(region); n *= 2 {
			copy(region[n:], region[:n])
		}
	}
	p.EndStore(off, size, began)
}

// Flush initiates write-back of [off, off+size), extended to cacheline
// boundaries. The data is durable only after the next Fence.
func (p *Pool) Flush(off, size uint64) {
	if size == 0 {
		return
	}
	g := p.gates.Load()
	if g == 0 {
		return
	}
	if g&gateTelem != 0 {
		devFlushes.Inc()
	}
	if g&gateTracking == 0 {
		return
	}
	start := off &^ (CachelineSize - 1)
	end := min((off+size+CachelineSize-1)&^(CachelineSize-1), uint64(len(p.data)))
	p.pendMu.Lock()
	p.pending = append(p.pending, flushRange{start, end - start})
	p.pendMu.Unlock()
	if sink := p.sink; sink != nil {
		sink.RecordFlush(start, end-start)
	}
}

// Fence makes all pending flushed ranges durable: each flushed line
// persists with its content at the time of the fence.
func (p *Pool) Fence() { p.fence(false) }

// GroupFence is Fence with cross-goroutine combining — classic group
// commit. The caller's flushes must already be registered (Flush
// returned) before the call. If another goroutine's fence *started*
// after that point, it retired our pending lines too, so we return
// without fencing; otherwise we fence for every committer now piling
// up behind the mode lock. Under contention N concurrent fences
// collapse to ~1.
//
// The epoch is read before taking mode for write and compared after; a
// fence bumps it under that lock in the same hold that copies the
// lines, so an observed change proves a fence ran entirely after the
// caller's flushes were registered.
func (p *Pool) GroupFence() { p.fence(true) }

// fence is Fence, and with group set GroupFence's combining fence.
func (p *Pool) fence(group bool) {
	g := p.gates.Load()
	if g&gateTracking == 0 {
		if g&gateTelem != 0 {
			devFences.Inc()
		}
		return
	}
	e := p.fenceEpoch.Load()
	p.mode.Lock()
	if group && p.fenceEpoch.Load() != e {
		p.mode.Unlock()
		if g&gateTelem != 0 {
			devFencesShared.Inc()
		}
		return
	}
	if g&gateTelem != 0 {
		devFences.Inc()
	}
	p.fenceEpoch.Add(1)
	p.pendMu.Lock()
	for _, r := range p.pending {
		copy(p.persisted[r.off:r.off+r.size], p.data[r.off:r.off+r.size])
	}
	telemetry.Flight.Record(telemetry.EvFence, uint64(len(p.pending)), 0)
	p.pending = p.pending[:0]
	p.pendMu.Unlock()
	sink := p.sink
	p.mode.Unlock()
	if sink != nil {
		sink.RecordFence()
	}
}

// FlushAccum coalesces the flush traffic of one commit epoch: requests
// are rounded to cachelines and merged with adjacent or duplicate
// lines, then issued to the device in one pass by Drain — the "flush
// once per line per fence" discipline PMDK's FLUSH macros implement
// with a dirty-line set. An accumulator belongs to one goroutine; the
// typical owner is a transaction commit or a redo publication.
type FlushAccum struct {
	p        *Pool
	lines    []flushRange // cacheline-rounded, merged opportunistically
	requests int          // raw requests this epoch
}

// NewFlushAccum returns an accumulator over p.
func NewFlushAccum(p *Pool) *FlushAccum { return &FlushAccum{p: p} }

// Flush records a flush request for [off, off+size).
func (a *FlushAccum) Flush(off, size uint64) {
	if size == 0 {
		return
	}
	if a.p.gates.Load() == 0 {
		// Flushes are free no-ops with tracking and telemetry both off;
		// recording them would only cost memory.
		return
	}
	start := off &^ (CachelineSize - 1)
	end := (off + size + CachelineSize - 1) &^ (CachelineSize - 1)
	if end > uint64(len(a.p.data)) {
		end = uint64(len(a.p.data))
	}
	a.requests++
	// Merge with the previous range when overlapping or adjacent — the
	// common shape (sequential log writes, block header pairs) without
	// paying for a sort on every request.
	if n := len(a.lines); n > 0 {
		l := &a.lines[n-1]
		if start <= l.off+l.size && l.off <= end {
			newEnd := l.off + l.size
			if end > newEnd {
				newEnd = end
			}
			if start < l.off {
				l.off = start
			}
			l.size = newEnd - l.off
			return
		}
	}
	a.lines = append(a.lines, flushRange{start, end - start})
}

// Drain merges the accumulated lines and issues one device flush per
// disjoint range. The epoch's coalescing win is counted into telemetry.
func (a *FlushAccum) Drain() {
	if len(a.lines) == 0 {
		a.requests = 0
		return
	}
	slices.SortFunc(a.lines, func(x, y flushRange) int { return cmp.Compare(x.off, y.off) })
	issued := 0
	cur := a.lines[0]
	for _, r := range a.lines[1:] {
		if r.off <= cur.off+cur.size {
			if e := r.off + r.size; e > cur.off+cur.size {
				cur.size = e - cur.off
			}
			continue
		}
		a.p.Flush(cur.off, cur.size)
		issued++
		cur = r
	}
	a.p.Flush(cur.off, cur.size)
	issued++
	if a.p.gates.Load()&gateTelem != 0 && a.requests > issued {
		devFlushCoalesced.Add(uint64(a.requests - issued))
	}
	a.lines = a.lines[:0]
	a.requests = 0
}

// Persist is Flush followed by Fence, PMDK's pmemobj_persist.
func (p *Pool) Persist(off, size uint64) {
	p.Flush(off, size)
	p.Fence()
}

// Crash reverts the working image to the durable image, simulating a
// power failure. It requires tracking and, like EnableTracking, a
// quiescent data path: loads are not bracketed.
func (p *Pool) Crash() error {
	p.mode.Lock()
	defer p.mode.Unlock()
	if !p.Tracking() {
		return ErrTrackingDisabled
	}
	copy(p.data, p.persisted)
	p.pending = p.pending[:0]
	return nil
}

// DurableImage returns a copy of the durable image. It requires
// tracking.
func (p *Pool) DurableImage() ([]byte, error) {
	p.mode.Lock()
	defer p.mode.Unlock()
	if !p.Tracking() {
		return nil, ErrTrackingDisabled
	}
	out := make([]byte, len(p.persisted))
	copy(out, p.persisted)
	return out, nil
}
