// Ordered range scans over the hash layout (DESIGN.md §17): every
// shard contributes its in-range entries as one key-ordered run, and
// the runs merge through a min-heap into one globally ordered visit. A
// key lives in exactly one shard, so the merge never sees duplicates.
//
// A run is a cursor over the shard root's ordered index when the root
// has one — seek lo, step to the successor, O(log n + rows) — and
// otherwise the root's in-range entries collected by walking every
// chain and sorted, O(keys in the shard). The walk serves roots pinned
// before the index was activated and the NoMVCC ablation, and is the
// oracle the index is tested against.
package kvstore

import (
	"bytes"
	"container/heap"
	"errors"
	"sort"

	"repro/internal/pmemobj"
	"repro/internal/telemetry"
)

// scanItem is one in-range entry: the key (loaded eagerly — ordering
// needs it) and the entry oid. val is loaded lazily at visit time on
// the snapshot path (the pin keeps the entry alive); the locked path
// loads it eagerly before the shard lock drops.
type scanItem struct {
	key    []byte
	val    []byte
	hasVal bool
	entry  pmemobj.Oid
}

// inRange reports lo <= key < hi, with nil meaning unbounded.
func inRange(key, lo, hi []byte) bool {
	return (lo == nil || bytes.Compare(key, lo) >= 0) &&
		(hi == nil || bytes.Compare(key, hi) < 0)
}

// collectRange walks one immutable shard root and returns its in-range
// items sorted by key. With eager set, values are copied out too.
func (s *Store) collectRange(c *ctx, root *shardRoot, lo, hi []byte, eager bool) ([]scanItem, error) {
	var items []scanItem
	var walked uint64
	s.walkRoot(c, root, func(_ uint64, entry pmemobj.Oid, ep uint64, key []byte) {
		walked++
		if !inRange(key, lo, hi) {
			return
		}
		it := scanItem{key: append([]byte(nil), key...), entry: entry}
		if eager {
			vlen := c.Load(ep, enVLen)
			it.val = c.LoadBytes(ep, s.entryDataOff()+int64(len(key)), vlen)
			it.hasVal = true
		}
		items = append(items, it)
	})
	metScanExamined.Add(walked)
	if err := c.Take(); err != nil {
		return nil, err
	}
	sort.Slice(items, func(i, j int) bool {
		return bytes.Compare(items[i].key, items[j].key) < 0
	})
	return items, nil
}

// run is one shard's in-range entries in key order: the rest of a
// collected, sorted slice, or (index non-nil) a cursor over the shard
// root's index bounded by hi. Only non-empty runs exist.
type run struct {
	items []scanItem
	index *rootIndex
	ix    ixIter
}

func (r *run) key() []byte {
	if r.index != nil {
		return r.ix.node().key
	}
	return r.items[0].key
}

// advance drops the run's head and reports whether an entry remains.
func (r *run) advance(hi []byte) bool {
	if r.index == nil {
		r.items = r.items[1:]
		return len(r.items) > 0
	}
	r.ix.next()
	return r.ix.inRange(hi)
}

// mergeHeap is a min-heap of runs keyed by each run's head.
type mergeHeap []run

func (m mergeHeap) Len() int { return len(m) }
func (m mergeHeap) Less(i, j int) bool {
	return bytes.Compare(m[i].key(), m[j].key()) < 0
}
func (m mergeHeap) Swap(i, j int) { m[i], m[j] = m[j], m[i] }
func (m *mergeHeap) Push(x any)   { *m = append(*m, x.(run)) }
func (m *mergeHeap) Pop() any {
	old := *m
	x := old[len(old)-1]
	*m = old[:len(old)-1]
	return x
}

// errIndexStale reports an index node whose entry does not hold the
// node's key: the entry was retired and its block reused, which only a
// missed reindex can cause. The scan fails rather than return a row
// the store does not contain.
var errIndexStale = errors.New("kvstore: ordered index names an entry that no longer holds its key")

// visitMerged merges the per-shard runs and calls fn on each pair in
// ascending key order, stopping early when fn returns false. Whatever
// fn receives was read from PM through the hooks: an indexed row loads
// its key and value together and checks the key against the index,
// which is used for order only. Rows read at visit time share one
// scratch buffer, so a pair is valid until fn returns and fn copies
// what it keeps.
func (s *Store) visitMerged(c *ctx, runs []run, hi []byte, fn func(key, value []byte) bool) error {
	var examined, returned uint64
	defer func() {
		if telemetry.On() {
			metScans.Inc()
			metScanExamined.Add(examined)
			metScanReturned.Add(returned)
		}
	}()
	h := mergeHeap(runs)
	heap.Init(&h)
	var scratch []byte
	for _, r := range h {
		if r.index != nil {
			examined++
		}
	}
	for h.Len() > 0 {
		r := &h[0]
		var key, val []byte
		if r.index != nil {
			n := r.ix.node()
			ep := c.Direct(r.index.entry(n))
			vlen := c.Load(ep, enVLen)
			klen := len(n.key)
			data := c.AppendBytes(scratch[:0], ep, s.entryDataOff(), uint64(klen)+vlen)
			if err := c.Take(); err != nil {
				return err
			}
			scratch = data
			if !bytes.Equal(data[:klen], n.key) {
				return errIndexStale
			}
			key, val = data[:klen:klen], data[klen:]
		} else {
			it := r.items[0]
			key, val = it.key, it.val
			if !it.hasVal {
				ep := c.Direct(it.entry)
				vlen := c.Load(ep, enVLen)
				val = c.AppendBytes(scratch[:0], ep, s.entryDataOff()+int64(len(key)), vlen)
				if err := c.Take(); err != nil {
					return err
				}
				scratch = val
			}
		}
		returned++
		if !fn(key, val) {
			return nil
		}
		if r.advance(hi) {
			if r.index != nil {
				examined++
			}
			heap.Fix(&h, 0)
		} else if last := len(h) - 1; last > 0 {
			h[0], h = h[last], h[:last]
			heap.Fix(&h, 0)
		} else {
			return nil
		}
	}
	return nil
}

// Scan visits every key in [lo, hi) in ascending byte order (nil lo
// scans from the start, nil hi to the end), stopping early when fn
// returns false. Under MVCC it runs against a private snapshot whose
// roots carry the ordered index — the first scan of a store builds it,
// O(keys) once; after that a scan costs O(shards · log keys + rows
// visited) and writers keep the index current. Under NoMVCC it falls
// back to per-shard locked collection, O(keys) per scan. The key and
// value slices handed to fn are valid until fn returns; fn copies what
// it keeps.
func (s *Store) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if !s.mvcc {
		return s.lockedScan(lo, hi, fn)
	}
	// Activate, then pin: the snapshot must capture the indexed roots.
	if err := s.activateIndex(); err != nil {
		return err
	}
	sn := s.Snapshot()
	err := sn.Scan(lo, hi, fn)
	if rerr := sn.Release(); err == nil {
		err = rerr
	}
	return err
}

// ixStackHint is the cursor stack depth a scan pre-sizes per shard —
// about the part of a seek path that lies at or above lo for some
// thousands of keys per shard; deeper paths grow their own stack.
const ixStackHint = 8

// Scan is Store.Scan against the snapshot's frozen view: no locks, and
// the result is stable no matter how hard writers churn. A snapshot
// taken after the store's first scan seeks its roots' indexes; one
// taken before walks every chain of its roots, O(keys) per scan.
func (sn *Snap) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if !sn.pinned {
		return sn.s.lockedScan(lo, hi, fn)
	}
	if sn.released {
		return errReleased
	}
	s := sn.s
	acc := s.proto
	c := &acc
	runs := make([]run, 0, len(sn.roots))
	var stacks []*ixNode
	walked := false
	for i, r := range sn.roots {
		if r.index == nil {
			walked = true
			items, err := s.collectRange(c, r, lo, hi, false)
			if err != nil {
				return err
			}
			if len(items) > 0 {
				runs = append(runs, run{items: items})
			}
			continue
		}
		if stacks == nil {
			stacks = make([]*ixNode, len(sn.roots)*ixStackHint)
		}
		ix := ixIter{stack: stacks[i*ixStackHint : i*ixStackHint : (i+1)*ixStackHint]}
		ix.seek(r.index.tree, lo)
		if ix.inRange(hi) {
			runs = append(runs, run{index: r.index, ix: ix})
		}
	}
	if walked {
		// This view stays un-indexed; the snapshots after it need not.
		if err := s.activateIndex(); err != nil {
			return err
		}
	}
	return s.visitMerged(c, runs, hi, fn)
}

// lockedScan is the NoMVCC fallback: each shard is frozen under its
// read lock just long enough to collect and copy its in-range pairs
// (values eagerly — once the lock drops a writer may free the entry),
// then the per-shard runs merge exactly like the snapshot path.
func (s *Store) lockedScan(lo, hi []byte, fn func(key, value []byte) bool) error {
	acc := s.proto
	c := &acc
	runs := make([]run, 0, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		root, err := s.loadRoot(c, sh)
		if err == nil {
			var items []scanItem
			items, err = s.collectRange(c, root, lo, hi, true)
			if len(items) > 0 {
				runs = append(runs, run{items: items})
			}
		}
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return s.visitMerged(c, runs, hi, fn)
}
