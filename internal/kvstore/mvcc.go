// MVCC snapshot isolation (DESIGN.md §17).
//
// Writers never mutate an entry or bucket head that a published view
// can reach: every Put/Delete copies the entries between the bucket
// head and the affected entry (the chain prefix), links the copies to
// the untouched suffix, and atomically publishes a fresh immutable
// shardRoot. Readers pin the global epoch, load roots with plain
// atomic loads, and traverse with zero lock acquisitions; every entry
// access still goes through the hooks.Runtime bounds checks, so SPP
// verdicts on the snapshot path are identical to the locked path.
//
// Superseded versions are retired, not freed: the transaction that
// publishes the new persistent bucket head also appends a retire node
// (a persistent list of the superseded oids) to the shard's retire
// chain, so the supersede and the retire are atomic and a crash
// between retire and reclaim cannot leak. A batch becomes reclaimable
// once every pinned epoch is newer than the batch's epoch; open()
// drains every chain before rebuilding the roots, because no volatile
// snapshot survives a restart.
package kvstore

import (
	"errors"
	"time"

	"repro/internal/pmemobj"
	"repro/internal/trace"
)

// headPageBits sizes the bucket-head pages of a shardRoot: a COW
// publish copies the page directory plus one 64-head page instead of
// the whole head array, so publication stays O(nbuckets/64 + 64).
const (
	headPageBits = 6
	headPageSize = 1 << headPageBits
	headPageMask = headPageSize - 1
)

type headPage [headPageSize]pmemobj.Oid

// shardRoot is one published immutable view of a shard: the bucket
// geometry, the live-key count, every bucket's chain head and, once a
// scan has activated it, the ordered index of the same population.
// Once stored in shard.root a shardRoot is never mutated.
//
// Index invariant: a non-nil index, walked in order, yields exactly
// the keys reachable from the heads, each bound to the oid of the entry
// that holds it in this root.
type shardRoot struct {
	nbuckets uint64
	count    uint64
	pages    []*headPage
	index    *rootIndex
}

func newShardRoot(nbuckets, count uint64) *shardRoot {
	r := &shardRoot{nbuckets: nbuckets, count: count}
	r.pages = make([]*headPage, (nbuckets+headPageMask)>>headPageBits)
	for i := range r.pages {
		r.pages[i] = new(headPage)
	}
	return r
}

func (r *shardRoot) head(b uint64) pmemobj.Oid {
	return r.pages[b>>headPageBits][b&headPageMask]
}

// setHead mutates in place — only valid while building a root that has
// not been published yet.
func (r *shardRoot) setHead(b uint64, h pmemobj.Oid) {
	r.pages[b>>headPageBits][b&headPageMask] = h
}

// withHead returns a copy of r with bucket b's head replaced and the
// count adjusted, sharing every untouched page — and the index, which
// the caller brings up to date with reindex — with r.
func (r *shardRoot) withHead(b uint64, h pmemobj.Oid, delta int64) *shardRoot {
	nr := &shardRoot{
		nbuckets: r.nbuckets,
		count:    uint64(int64(r.count) + delta),
		pages:    append([]*headPage(nil), r.pages...),
		index:    r.index,
	}
	pg := *r.pages[b>>headPageBits]
	pg[b&headPageMask] = h
	nr.pages[b>>headPageBits] = &pg
	return nr
}

// reindex brings the index an unpublished root inherited up to date
// with the one mutation of bucket b that made the root (rootIndex.apply
// has the arguments).
func (r *shardRoot) reindex(b uint64, key []byte, match, fresh pmemobj.Oid, prefix, copies []pmemobj.Oid) {
	if r.index != nil {
		r.index = r.index.apply(uint32(b>>headPageBits), key, match, fresh, prefix, copies)
	}
}

// Retire-node layout: {next oid, count u64, oids[count]}. Nodes cap at
// retireNodeMax oids so a single allocation stays far below the SPP
// maximum object size even when a whole-shard rehash retires every
// entry at once.
const (
	rnNext        = 0
	retireNodeMax = 512
)

func (s *Store) rnCountOff() int64    { return s.oidSize }
func (s *Store) rnOidOff(i int) int64 { return s.oidSize + 8 + int64(i)*s.oidSize }
func (s *Store) retireNodeSize(n int) uint64 {
	return uint64(s.oidSize) + 8 + uint64(n)*uint64(s.oidSize)
}

// retireBatch is one persistent retire node queued for reclamation:
// the epoch at which its versions were superseded, and the node oid.
type retireBatch struct {
	epoch uint64
	node  pmemobj.Oid
}

// pin registers a reader at the current epoch and returns it. The
// minPin store happens before the caller's root loads; writers publish
// the new root before reading minPin. With sequentially consistent
// atomics a writer therefore either observes the pin (and keeps the
// batch) or the reader observes the newer root (and never references
// the batch) — the classic store/load ordering argument.
func (s *Store) pin() uint64 {
	s.pinMu.Lock()
	e := s.epoch.Load()
	s.pins[e]++
	if e < s.minPin.Load() {
		s.minPin.Store(e)
	}
	s.pinMu.Unlock()
	return e
}

// unpin drops one pin on e and reports whether no pin remains.
func (s *Store) unpin(e uint64) bool {
	s.pinMu.Lock()
	if s.pins[e]--; s.pins[e] <= 0 {
		delete(s.pins, e)
	}
	min := ^uint64(0)
	for p := range s.pins {
		if p < min {
			min = p
		}
	}
	s.minPin.Store(min)
	none := len(s.pins) == 0
	s.pinMu.Unlock()
	return none
}

// errReleased guards use of a snapshot after Release.
var errReleased = errors.New("kvstore: snapshot used after Release")

// Snap is a pinned immutable view of the store: Get, Scan and Count
// run against the captured roots with zero lock acquisitions while
// writers keep publishing new versions. Each shard is frozen at its
// capture instant (per-shard snapshot consistency). A Snap is bound to
// one goroutine and must end in Release.
type Snap struct {
	s        *Store
	epoch    uint64
	roots    []*shardRoot
	pinned   bool
	released bool
}

// Snapshot pins the current epoch and captures every shard's published
// root. Under NoMVCC the returned Snap falls back to the locked read
// path — the ablation baseline — so callers need no mode branch.
func (s *Store) Snapshot() *Snap {
	sn := &Snap{s: s}
	if !s.mvcc {
		return sn
	}
	sn.pinned = true
	sn.epoch = s.pin()
	sn.roots = make([]*shardRoot, len(s.shards))
	for i := range s.shards {
		sn.roots[i] = s.shards[i].root.Load()
	}
	return sn
}

// Get returns the value stored under key in the snapshot's view.
func (sn *Snap) Get(key []byte) ([]byte, bool, error) {
	if !sn.pinned {
		return sn.s.Get(key)
	}
	if sn.released {
		return nil, false, errReleased
	}
	s := sn.s
	h := hashKey(key)
	root := sn.roots[h%uint64(len(sn.roots))]
	c := s.proto
	val, ok := s.appendValue(&c, nil, root.head(s.bucketOf(h, root.nbuckets)), key)
	return val, ok, c.Take()
}

// Count returns the number of keys in the snapshot's view.
func (sn *Snap) Count() (uint64, error) {
	if !sn.pinned {
		return sn.s.Count()
	}
	if sn.released {
		return 0, errReleased
	}
	var total uint64
	for _, r := range sn.roots {
		total += r.count
	}
	return total, nil
}

// Release unpins the snapshot's epoch, making the versions it held
// eligible for reclamation. The freeing itself stays off the read
// path: writers drain their shard's eligible batches after each
// mutation (and open() drains everything), so a releasing reader never
// pays for persistent-transaction frees or queues on shard locks.
// Call Store.Reclaim for an explicit synchronous sweep. Idempotent.
func (sn *Snap) Release() error {
	if !sn.pinned || sn.released {
		sn.released = true
		return nil
	}
	sn.released = true
	sn.s.unpin(sn.epoch)
	return nil
}

// findChain walks bucket b of root for key, returning the entries
// before the match (the COW prefix, head first), the matching entry
// (null when absent), and the chain following the match.
func (s *Store) findChain(c *ctx, root *shardRoot, b uint64, key []byte) (prefix []pmemobj.Oid, match, rest pmemobj.Oid) {
	entry := root.head(b)
	for !entry.IsNull() && c.Err() == nil {
		ep := c.Direct(entry)
		if s.keyEqual(c, ep, key) {
			metProbeLength.Observe(uint64(len(prefix)) + 1)
			return prefix, entry, c.LoadOid(ep, enNext)
		}
		prefix = append(prefix, entry)
		entry = c.LoadOid(ep, enNext)
	}
	metProbeLength.Observe(uint64(len(prefix)))
	return prefix, pmemobj.OidNull, pmemobj.OidNull
}

// newEntry allocates and fills an entry inside tx.
func (s *Store) newEntry(c *ctx, tx *pmemobj.Tx, key, value []byte, next pmemobj.Oid) pmemobj.Oid {
	fresh, err := c.RT.TxAlloc(tx, s.entrySize(len(key), len(value)))
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	fp := c.Direct(fresh)
	c.Store(fp, enKLen, uint64(len(key)))
	c.Store(fp, enVLen, uint64(len(value)))
	c.StoreOid(fp, enNext, next)
	c.StoreBytes(fp, s.entryDataOff(), key)
	c.StoreBytes(fp, s.entryDataOff()+int64(len(key)), value)
	return fresh
}

// copyEntry clones one entry with a new next pointer.
func (s *Store) copyEntry(c *ctx, tx *pmemobj.Tx, entry, next pmemobj.Oid) pmemobj.Oid {
	ep := c.Direct(entry)
	klen := c.Load(ep, enKLen)
	vlen := c.Load(ep, enVLen)
	data := c.LoadBytes(ep, s.entryDataOff(), klen+vlen)
	if c.Err() != nil {
		return pmemobj.OidNull
	}
	fresh, err := c.RT.TxAlloc(tx, uint64(s.entryDataOff())+klen+vlen)
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	fp := c.Direct(fresh)
	c.Store(fp, enKLen, klen)
	c.Store(fp, enVLen, vlen)
	c.StoreOid(fp, enNext, next)
	c.StoreBytes(fp, s.entryDataOff(), data)
	return fresh
}

// copyChain rebuilds prefix (given head first) in front of tail and
// returns the new head; for an indexed root it also returns the copy
// made of each prefix entry, for reindex.
func (s *Store) copyChain(c *ctx, tx *pmemobj.Tx, prefix []pmemobj.Oid, tail pmemobj.Oid, indexed bool) (head pmemobj.Oid, copies []pmemobj.Oid) {
	if indexed {
		copies = make([]pmemobj.Oid, len(prefix))
	}
	head = tail
	for i := len(prefix) - 1; i >= 0 && c.Err() == nil; i-- {
		head = s.copyEntry(c, tx, prefix[i], head)
		if indexed {
			copies[i] = head
		}
	}
	return head, copies
}

// appendRetire persists the superseded oids as retire nodes linked at
// the tail of the shard's chain (the oldest node stays at the head,
// where reclaim unlinks in O(1)). Runs in the caller's transaction so
// the retire is atomic with the supersede; returns the new nodes,
// oldest first. The volatile tail is the caller's to update after the
// commit succeeds.
func (s *Store) appendRetire(c *ctx, tx *pmemobj.Tx, sh *shard, retired []pmemobj.Oid) []pmemobj.Oid {
	if len(retired) == 0 || c.Err() != nil {
		return nil
	}
	var nodes []pmemobj.Oid
	tail := sh.retireTail
	for start := 0; start < len(retired); start += retireNodeMax {
		chunk := retired[start:min(start+retireNodeMax, len(retired))]
		node, err := c.RT.TxAlloc(tx, s.retireNodeSize(len(chunk)))
		if err != nil {
			c.Fail(err)
			return nil
		}
		np := c.Direct(node)
		c.Store(np, s.rnCountOff(), uint64(len(chunk)))
		for i, oid := range chunk {
			c.StoreOid(np, s.rnOidOff(i), oid)
		}
		if tail.IsNull() {
			c.SnapshotField(tx, sh.hdr, s.shRetireOff(), uint64(s.oidSize))
			c.StoreOid(c.Direct(sh.hdr), s.shRetireOff(), node)
		} else {
			c.SnapshotField(tx, tail, rnNext, uint64(s.oidSize))
			c.StoreOid(c.Direct(tail), rnNext, node)
		}
		tail = node
		nodes = append(nodes, node)
	}
	return nodes
}

// persistPublish writes the durable side of one COW mutation — the new
// bucket head, the updated count, and the retire nodes for superseded
// versions — all in the caller's transaction.
func (s *Store) persistPublish(c *ctx, tx *pmemobj.Tx, sh *shard, b uint64, head pmemobj.Oid, delta int64, retired []pmemobj.Oid) []pmemobj.Oid {
	if c.Err() != nil {
		return nil
	}
	hp := c.Direct(sh.hdr)
	buckets := c.LoadOid(hp, shBuckets)
	c.SnapshotField(tx, buckets, int64(b)*s.oidSize, uint64(s.oidSize))
	c.StoreOid(c.Direct(buckets), int64(b)*s.oidSize, head)
	if delta != 0 {
		c.SnapshotField(tx, sh.hdr, shCount, 8)
		hp = c.Direct(sh.hdr)
		c.Store(hp, shCount, uint64(int64(c.Load(hp, shCount))+delta))
	}
	return s.appendRetire(c, tx, sh, retired)
}

// publish swaps in the new immutable root and queues the retire nodes
// under the current epoch, then advances it. Caller holds sh.mu and
// has committed the matching persistent state. The root store precedes
// the epoch bookkeeping; see pin for the ordering argument.
func (s *Store) publish(sh *shard, root *shardRoot, nodes []pmemobj.Oid) {
	sh.root.Store(root)
	if len(nodes) > 0 {
		e := s.epoch.Load()
		for _, n := range nodes {
			sh.retired = append(sh.retired, retireBatch{epoch: e, node: n})
		}
		sh.retireTail = nodes[len(nodes)-1]
	}
	s.epoch.Add(1)
}

// putMVCC is Put under snapshot isolation: copy-on-write of the
// touched chain prefix, atomic root publication, opportunistic
// reclamation.
func (s *Store) putMVCC(tr *trace.Req, key, value []byte) error {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	root := sh.root.Load()
	b := s.bucketOf(h, root.nbuckets)
	c := newCtx(s.rt)
	c.Trace = tr

	// Probe outside the transaction; the shard lock keeps the chain
	// stable between probe and commit.
	prefix, match, rest := s.findChain(c, root, b, key)
	if err := c.Take(); err != nil {
		return err
	}
	var newHead, fresh pmemobj.Oid
	var nodes, copies []pmemobj.Oid
	delta := int64(1)
	err := c.Run(func(tx *pmemobj.Tx) {
		var retired []pmemobj.Oid
		if match.IsNull() {
			// Insert at head: nothing to copy, nothing to retire.
			fresh = s.newEntry(c, tx, key, value, root.head(b))
			newHead = fresh
		} else {
			delta = 0
			fresh = s.newEntry(c, tx, key, value, rest)
			newHead, copies = s.copyChain(c, tx, prefix, fresh, root.index != nil)
			retired = append(append(retired, prefix...), match)
		}
		nodes = s.persistPublish(c, tx, sh, b, newHead, delta, retired)
	})
	if err != nil {
		return err
	}
	next := root.withHead(b, newHead, delta)
	next.reindex(b, key, match, fresh, prefix, copies)
	s.publish(sh, next, nodes)
	if err := s.maybeRehashMVCC(sh, tr); err != nil {
		return err
	}
	return s.drainShard(sh, c, tr)
}

// deleteMVCC is Delete under snapshot isolation.
func (s *Store) deleteMVCC(tr *trace.Req, key []byte) (bool, error) {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	root := sh.root.Load()
	b := s.bucketOf(h, root.nbuckets)
	c := newCtx(s.rt)
	c.Trace = tr

	prefix, match, rest := s.findChain(c, root, b, key)
	if err := c.Take(); err != nil {
		return false, err
	}
	if match.IsNull() {
		return false, nil
	}
	var newHead pmemobj.Oid
	var nodes, copies []pmemobj.Oid
	err := c.Run(func(tx *pmemobj.Tx) {
		newHead, copies = s.copyChain(c, tx, prefix, rest, root.index != nil)
		nodes = s.persistPublish(c, tx, sh, b, newHead, -1, append(prefix, match))
	})
	if err != nil {
		return false, err
	}
	next := root.withHead(b, newHead, -1)
	next.reindex(b, key, match, pmemobj.OidNull, prefix, copies)
	s.publish(sh, next, nodes)
	return true, s.drainShard(sh, c, tr)
}

// maybeRehashMVCC doubles the bucket array when the load factor
// exceeds one. Every entry is copied — published roots may reference
// any old entry, and relinking would mutate its next field — and the
// old population retires as one batch. The old bucket array is freed
// in-transaction: under MVCC no reader dereferences the persistent
// bucket array. Caller holds sh.mu.
func (s *Store) maybeRehashMVCC(sh *shard, tr *trace.Req) error {
	root := sh.root.Load()
	if root.count <= root.nbuckets {
		return nil
	}
	span := tr.Span(trace.PhaseMaint)
	defer span.End()

	start := time.Now()
	newN := root.nbuckets * 2
	c := newCtx(s.rt)
	c.Trace = tr
	newRoot := newShardRoot(newN, root.count)
	var nodes []pmemobj.Oid
	var ixb *ixBuilder
	if root.index != nil {
		// Every entry moves, so the index is rebuilt from the copies
		// rather than patched.
		ixb = newIxBuilder(newRoot)
	}
	err := c.Run(func(tx *pmemobj.Tx) {
		fresh, err := s.rt.TxAlloc(tx, newN*uint64(s.oidSize))
		if err != nil {
			c.Fail(err)
			return
		}
		var retired []pmemobj.Oid
		s.walkRoot(c, root, func(_ uint64, entry pmemobj.Oid, _ uint64, key []byte) {
			nb := s.bucketOf(hashKey(key), newN)
			cp := s.copyEntry(c, tx, entry, newRoot.head(nb))
			newRoot.setHead(nb, cp)
			retired = append(retired, entry)
			if ixb != nil {
				ixb.add(nb, key, cp)
			}
		})
		if c.Err() != nil {
			return
		}
		// The new heads go into the fresh persistent bucket array —
		// a fresh allocation, so no snapshots are needed for it.
		np := c.Direct(fresh)
		for bkt := uint64(0); bkt < newN && c.Err() == nil; bkt++ {
			if h := newRoot.head(bkt); !h.IsNull() {
				c.StoreOid(np, int64(bkt)*s.oidSize, h)
			}
		}
		hp := c.Direct(sh.hdr)
		oldBuckets := c.LoadOid(hp, shBuckets)
		c.SnapshotField(tx, sh.hdr, shNBuckets, 8+uint64(s.oidSize))
		hp = c.Direct(sh.hdr)
		c.Store(hp, shNBuckets, newN)
		c.StoreOid(hp, shBuckets, fresh)
		if err := c.RT.TxFree(tx, oldBuckets); err != nil {
			c.Fail(err)
			return
		}
		nodes = s.appendRetire(c, tx, sh, retired)
	})
	if err != nil {
		return err
	}
	if ixb != nil {
		newRoot.index = ixb.index()
		metIndexBuilds.Inc()
	}
	s.publish(sh, newRoot, nodes)
	observeRehash(start)
	return nil
}

// drainShard reclaims the shard's leading retire batches whose epoch
// every pinned snapshot has moved past. Caller holds sh.mu. One
// transaction per node keeps reclaim crash-atomic: a batch is either
// fully freed and unlinked or still wholly on the chain.
func (s *Store) drainShard(sh *shard, c *ctx, tr *trace.Req) error {
	min := s.minPin.Load()
	if len(sh.retired) == 0 || sh.retired[0].epoch >= min {
		return nil
	}
	span := tr.Span(trace.PhaseMaint)
	defer span.End()
	for len(sh.retired) > 0 && sh.retired[0].epoch < min {
		if err := s.freeOldestNode(sh, c, tr); err != nil {
			return err
		}
		sh.retired = sh.retired[1:]
	}
	if len(sh.retired) == 0 {
		sh.retireTail = pmemobj.OidNull
	}
	return nil
}

// freeOldestNode frees every version listed by the chain-head retire
// node, unlinks it, and frees the node itself, in one transaction.
func (s *Store) freeOldestNode(sh *shard, c *ctx, tr *trace.Req) error {
	c.Trace = tr
	return c.Run(func(tx *pmemobj.Tx) {
		node := c.LoadOid(c.Direct(sh.hdr), s.shRetireOff())
		if c.Err() != nil || node.IsNull() {
			return
		}
		np := c.Direct(node)
		n := c.Load(np, s.rnCountOff())
		for i := uint64(0); i < n && c.Err() == nil; i++ {
			oid := c.LoadOid(np, s.rnOidOff(int(i)))
			if err := c.RT.TxFree(tx, oid); err != nil {
				c.Fail(err)
				return
			}
		}
		next := c.LoadOid(np, rnNext)
		c.SnapshotField(tx, sh.hdr, s.shRetireOff(), uint64(s.oidSize))
		c.StoreOid(c.Direct(sh.hdr), s.shRetireOff(), next)
		if err := c.RT.TxFree(tx, node); err != nil {
			c.Fail(err)
		}
	})
}

// drainChain frees every retire node on a shard's persistent chain —
// crash cleanup at open, where no snapshot can reference the
// superseded versions.
func (s *Store) drainChain(sh *shard) error {
	c := newCtx(s.rt)
	for {
		head := c.LoadOid(c.Direct(sh.hdr), s.shRetireOff())
		if err := c.Take(); err != nil {
			return err
		}
		if head.IsNull() {
			return nil
		}
		if err := s.freeOldestNode(sh, c, nil); err != nil {
			return err
		}
	}
}

// loadRoot builds a volatile shard root from the persistent shard
// state. Caller must exclude writers.
func (s *Store) loadRoot(c *ctx, sh *shard) (*shardRoot, error) {
	hp := c.Direct(sh.hdr)
	n := c.Load(hp, shNBuckets)
	count := c.Load(hp, shCount)
	buckets := c.LoadOid(hp, shBuckets)
	if err := c.Take(); err != nil {
		return nil, err
	}
	r := newShardRoot(n, count)
	bp := c.Direct(buckets)
	for b := uint64(0); b < n; b++ {
		r.setHead(b, c.LoadOid(bp, int64(b)*s.oidSize))
	}
	return r, c.Take()
}

// walkRoot calls fn for every entry reachable from root, bucket by
// bucket, with the entry's bucket, its pointer and its key loaded
// through the hooks. It stops at the first error, left pending on c.
func (s *Store) walkRoot(c *ctx, root *shardRoot, fn func(b uint64, entry pmemobj.Oid, ep uint64, key []byte)) {
	for b := uint64(0); b < root.nbuckets && c.Err() == nil; b++ {
		entry := root.head(b)
		for !entry.IsNull() && c.Err() == nil {
			ep := c.Direct(entry)
			klen := c.Load(ep, enKLen)
			key := c.LoadBytes(ep, s.entryDataOff(), klen)
			if c.Err() != nil {
				return
			}
			fn(b, entry, ep, key)
			entry = c.LoadOid(ep, enNext)
		}
	}
}

// activateIndex gives every shard's current root its ordered index, so
// that the roots a later Snapshot captures seek instead of walk. The
// first ordered scan pays for it; a store that never scans never
// builds one. Each shard is indexed and republished under its lock: a
// writer ran either before (its root is the one indexed) or runs after
// (it inherits the index and maintains it), so once a shard's root is
// indexed every later root of that shard is. Callers activate first
// and pin second — a snapshot pinned before activation keeps its
// un-indexed roots and walks. The republished root reaches the same
// entries, so the epoch does not move and nothing retires.
func (s *Store) activateIndex() error {
	if s.indexed.Load() {
		return nil
	}
	c := newCtx(s.rt)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if root := sh.root.Load(); root.index == nil {
			ixb := newIxBuilder(root)
			s.walkRoot(c, root, func(b uint64, entry pmemobj.Oid, _ uint64, key []byte) {
				ixb.add(b, key, entry)
			})
			if err := c.Take(); err != nil {
				sh.mu.Unlock()
				return err
			}
			nr := *root
			nr.index = ixb.index()
			sh.root.Store(&nr)
			metIndexBuilds.Inc()
		}
		sh.mu.Unlock()
	}
	s.indexed.Store(true)
	return nil
}

// Reclaim frees every retire batch no pinned snapshot can reference.
// Writers drain opportunistically after each mutation; Reclaim is the
// explicit synchronous sweep for quiescent stores (a test asserting
// pool occupancy, or a caller that just released the last snapshot and
// wants the space back now). A no-op under NoMVCC.
func (s *Store) Reclaim() error {
	if !s.mvcc {
		return nil
	}
	c := newCtx(s.rt)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := s.drainShard(sh, c, nil)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
