// Ordered range scans over the hash layout (DESIGN.md §17): every
// shard contributes its in-range entries as one key-ordered run, and
// the runs merge through a min-heap into one globally ordered visit. A
// key lives in exactly one shard, so the merge never sees duplicates.
//
// A run is a cursor over the shard root's ordered index when the root
// has one — seek lo, step to the successor, O(log n + rows) — and
// otherwise the root's in-range entries collected by walking every
// chain and sorted, O(keys in the shard). The walk serves roots pinned
// before the index was activated, and is the oracle the index is tested
// against.
//
// What a scan needs besides its rows it borrows from the store's pool
// for the length of the call, as one scanWS. The borrower is its only
// user — fn scanning the same store borrows another — so a pair is
// valid until fn returns, as ever. A parked workspace keeps capacity
// and nothing else: a root, index node or row left in an idle pool
// would pin versions the retire machinery has already let go.
package kvstore

import (
	"bytes"
	"errors"
	"sort"

	"repro/internal/pmemobj"
)

// scanWS is the workspace of one ordered scan.
type scanWS struct {
	c       ctx
	roots   []*shardRoot // Store.Scan's private snapshot, by shard
	runs    []run        // the merge heap
	iters   []ixIter     // by shard; a run over an index points at its own
	scratch []byte       // the row fn is looking at
}

// scanRetainCap is the largest row buffer a parked workspace keeps
// (wire.RetainCap's rule): one huge value must not stay with an idle store.
const scanRetainCap = 64 << 10

// borrowScan takes a workspace out of the pool; an empty pool — first
// use, or a scan nested in another's fn — makes one.
func (s *Store) borrowScan() *scanWS {
	ws, _ := s.scanPool.Get().(*scanWS)
	if ws == nil {
		n := len(s.shards)
		ws = &scanWS{roots: make([]*shardRoot, n), runs: make([]run, 0, n), iters: make([]ixIter, n)}
	}
	ws.c = s.proto
	return ws
}

// parkScan returns ws to the pool, every slice cleared to its capacity,
// not its length: the slots a cursor popped still name their nodes.
func (s *Store) parkScan(ws *scanWS) {
	clear(ws.roots)
	clear(ws.runs[:cap(ws.runs)])
	ws.runs = ws.runs[:0]
	for i := range ws.iters {
		st := ws.iters[i].stack
		clear(st[:cap(st)])
		ws.iters[i].stack = st[:0]
	}
	if cap(ws.scratch) > scanRetainCap {
		ws.scratch = nil
	}
	s.scanPool.Put(ws)
}

// scanItem is one in-range entry: the key (loaded eagerly — ordering
// needs it) and the entry oid. The value is loaded at visit time; the
// pin keeps the entry alive until then.
type scanItem struct {
	key   []byte
	entry pmemobj.Oid
}

// inRange reports lo <= key < hi, with nil meaning unbounded.
func inRange(key, lo, hi []byte) bool {
	return (lo == nil || bytes.Compare(key, lo) >= 0) &&
		(hi == nil || bytes.Compare(key, hi) < 0)
}

// collectRange walks one immutable shard root and returns its in-range
// items sorted by key.
func (s *Store) collectRange(c *ctx, root *shardRoot, lo, hi []byte) ([]scanItem, error) {
	var items []scanItem
	var walked uint64
	s.walkRoot(c, root, func(_ uint64, entry pmemobj.Oid, _ uint64, key []byte) {
		walked++
		if inRange(key, lo, hi) {
			items = append(items, scanItem{key: append([]byte(nil), key...), entry: entry})
		}
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
// collected, sorted slice, or (index non-nil) the workspace's cursor for
// that shard over the root's index, bounded by hi. Only non-empty runs
// exist.
type run struct {
	items []scanItem
	index *rootIndex
	ix    *ixIter
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

// siftDown restores the min-heap order of h — runs keyed by their head
// — below position i, the only place it can be broken once the run
// there has advanced or been replaced.
func siftDown(h []run, i int) {
	for m := 2*i + 1; m < len(h); i, m = m, 2*m+1 {
		if m+1 < len(h) && bytes.Compare(h[m+1].key(), h[m].key()) < 0 {
			m++
		}
		if bytes.Compare(h[m].key(), h[i].key()) >= 0 {
			return
		}
		h[i], h[m] = h[m], h[i]
	}
}

// errIndexStale reports an index node whose entry does not hold the
// node's key: the entry was retired and its block reused, which only a
// missed reindex can cause. The scan fails rather than return a row
// the store does not contain.
var errIndexStale = errors.New("kvstore: ordered index names an entry that no longer holds its key")

// visitMerged merges ws.runs and calls fn on each pair in ascending key
// order, stopping early when fn returns false. Whatever fn receives was
// read from PM through the hooks: an indexed row loads its key and value
// together and checks the key against the index, which is used for
// order only. Rows read at visit time share the workspace's scratch
// buffer, so a pair is valid until fn returns and fn copies what it
// keeps.
func (s *Store) visitMerged(ws *scanWS, hi []byte, fn func(key, value []byte) bool) error {
	var examined, returned uint64
	defer func() {
		metScans.Inc()
		metScanExamined.Add(examined)
		metScanReturned.Add(returned)
	}()
	c, h := &ws.c, ws.runs
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := range h {
		if h[i].index != nil {
			examined++
		}
	}
	for len(h) > 0 {
		r := &h[0]
		var key, val []byte
		if r.index != nil {
			n := r.ix.node()
			ep := c.Direct(r.index.entry(n))
			vlen := c.Load(ep, enVLen)
			klen := len(n.key)
			data := c.AppendBytes(ws.scratch[:0], ep, s.entryDataOff(), uint64(klen)+vlen)
			if err := c.Take(); err != nil {
				return err
			}
			ws.scratch = data
			if !bytes.Equal(data[:klen], n.key) {
				return errIndexStale
			}
			key, val = data[:klen:klen], data[klen:]
		} else {
			it := r.items[0]
			key = it.key
			ep := c.Direct(it.entry)
			vlen := c.Load(ep, enVLen)
			val = c.AppendBytes(ws.scratch[:0], ep, s.entryDataOff()+int64(len(key)), vlen)
			if err := c.Take(); err != nil {
				return err
			}
			ws.scratch = val
		}
		returned++
		if !fn(key, val) {
			return nil
		}
		if r.advance(hi) {
			if r.index != nil {
				examined++
			}
		} else if last := len(h) - 1; last > 0 {
			h[0], h = h[last], h[:last]
		} else {
			return nil
		}
		siftDown(h, 0)
	}
	return nil
}

// Scan visits every key in [lo, hi) in ascending byte order (nil lo
// scans from the start, nil hi to the end), stopping early when fn
// returns false. It runs against a private snapshot — a pin and the
// roots it captures into its workspace — whose roots carry the ordered
// index: the first scan of a store builds it, O(keys) once; after that
// a scan costs O(shards · log keys + rows visited) and writers keep the
// index current. The key and value slices handed to fn are valid until
// fn returns; fn copies what it keeps.
func (s *Store) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	// Activate, then pin: the snapshot must capture the indexed roots.
	if err := s.activateIndex(); err != nil {
		return err
	}
	ws := s.borrowScan()
	defer s.parkScan(ws)
	defer s.unpin(s.pin())
	for i := range s.shards {
		ws.roots[i] = s.shards[i].root.Load()
	}
	return s.scanRoots(ws, ws.roots, lo, hi, fn)
}

// Scan is Store.Scan against the snapshot's frozen view: no locks, and
// the result is stable no matter how hard writers churn. A snapshot
// taken after the store's first scan seeks its roots' indexes; one
// taken before walks every chain of its roots, O(keys) per scan.
func (sn *Snap) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if sn.released {
		return errReleased
	}
	ws := sn.s.borrowScan()
	defer sn.s.parkScan(ws)
	return sn.s.scanRoots(ws, sn.roots, lo, hi, fn)
}

// scanRoots opens one run per shard of a pinned view in ws and merges
// them.
func (s *Store) scanRoots(ws *scanWS, roots []*shardRoot, lo, hi []byte, fn func(key, value []byte) bool) error {
	walked := false
	for i, r := range roots {
		if r.index == nil {
			walked = true
			items, err := s.collectRange(&ws.c, r, lo, hi)
			if err != nil {
				return err
			}
			if len(items) > 0 {
				ws.runs = append(ws.runs, run{items: items})
			}
			continue
		}
		ix := &ws.iters[i]
		ix.seek(r.index.tree, lo)
		if ix.inRange(hi) {
			ws.runs = append(ws.runs, run{index: r.index, ix: ix})
		}
	}
	if walked {
		// This view stays un-indexed; the snapshots after it need not.
		if err := s.activateIndex(); err != nil {
			return err
		}
	}
	return s.visitMerged(ws, hi, fn)
}
