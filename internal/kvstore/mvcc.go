// MVCC snapshot isolation (DESIGN.md §17).
//
// Writers never mutate an entry or bucket head that a published view
// can reach: every Put/Delete copies the entries between the bucket
// head and the affected entry (the chain prefix), links the copies to
// the untouched suffix, and atomically publishes a fresh immutable
// shardRoot. Readers pin the global epoch, load roots with plain
// atomic loads, and traverse with zero lock acquisitions; every entry
// access still goes through the hooks.Runtime bounds checks, so SPP
// verdicts on the snapshot path are those of a locked walk of the
// persistent bucket heads (the test oracle getLocked and lockedScan).
//
// Superseded versions are retired, not freed: the transaction that
// publishes the new persistent bucket head also appends a retire node
// (a persistent list of the superseded oids) to the shard's retire
// chain, so the supersede and the retire are atomic and a crash
// between retire and reclaim cannot leak. A batch becomes reclaimable
// once every pinned epoch is newer than the batch's epoch, and the next
// write to the shard frees it inside its own transaction (foldReclaim),
// so a steady-state put is one transaction; open() drains every chain
// before rebuilding the roots, because no volatile snapshot survives a
// restart.
package kvstore

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/pmemobj"
	"repro/internal/trace"
)

// headVer is one version of one bucket's chain head. The roots of a
// shard between two rehashes share one table of version chains, newest
// first; a root reads the newest version no newer than itself, so a
// write publishes one headVer and one shardRoot whatever the bucket
// count. oid and ver never change once the version is in the table.
type headVer struct {
	oid pmemobj.Oid
	ver uint64
	// epoch is the global epoch read right after the root that made
	// this version current was stored (publish stamps it; only writers
	// read it, under the shard lock). It gates cutting prev.
	epoch uint64
	prev  atomic.Pointer[headVer]
}

// headTable is the version table of one bucket geometry.
type headTable struct {
	slots []atomic.Pointer[headVer] // by bucket; nil: never had an entry
	slab  []headVer                 // backing store setHead cuts the first population from
}

// shardRoot is one published immutable view of a shard: the bucket
// geometry, the live-key count, the version of the shared head table
// it reads and, once a scan has activated it, the ordered index of the
// same population. Once stored in shard.root a shardRoot is never
// mutated.
//
// Index invariant: a non-nil index, walked in order, yields exactly
// the keys reachable from the heads, each bound to the oid of the entry
// that holds it in this root.
type shardRoot struct {
	nbuckets uint64
	count    uint64
	ver      uint64
	table    *headTable
	index    *rootIndex
}

// newShardRoot returns an unpublished root over a fresh, empty table.
func newShardRoot(nbuckets, count uint64) *shardRoot {
	return &shardRoot{nbuckets: nbuckets, count: count, table: &headTable{
		slots: make([]atomic.Pointer[headVer], nbuckets),
		slab:  make([]headVer, 0, min(nbuckets, count)),
	}}
}

// version returns bucket b's head as r sees it: the newest version no
// newer than r, nil when the bucket was empty. Versions above r.ver
// belong to roots published after r (or to one about to be).
func (r *shardRoot) version(b uint64) *headVer {
	v := r.table.slots[b].Load()
	var skipped uint64
	for v != nil && v.ver > r.ver {
		v = v.prev.Load()
		skipped++
	}
	metHeadVersionsWalked.Observe(skipped)
	return v
}

func (r *shardRoot) head(b uint64) pmemobj.Oid {
	if v := r.version(b); v != nil {
		return v.oid
	}
	return pmemobj.OidNull
}

// setHead mutates in place — only valid while building a root that has
// not been published yet, over a table no other root shares.
func (r *shardRoot) setHead(b uint64, h pmemobj.Oid) {
	t := r.table
	v := t.slots[b].Load()
	if v == nil {
		if len(t.slab) == cap(t.slab) {
			// The full slab stays alive through the versions cut from it.
			t.slab = make([]headVer, 0, 64)
		}
		t.slab = t.slab[:len(t.slab)+1]
		v = &t.slab[len(t.slab)-1]
		v.ver = r.ver
		t.slots[b].Store(v)
	}
	v.oid = h
}

// withHead returns the root that follows r — the shard's current root —
// by one mutation of bucket b, and the version it installed for it.
// Installing comes before the root is stored and is harmless: every
// older root skips a version newer than itself. The version it
// supersedes loses its own predecessor once no pinned reader can hold a
// root older than the one that made it current (old.epoch < minPin, the
// retire-batch rule; publish has the ordering argument), so a chain is
// two versions long unless a snapshot is being held. The caller brings
// the inherited index up to date with reindex and publishes the pair.
func (r *shardRoot) withHead(b uint64, h pmemobj.Oid, delta int64, minPin uint64) (*shardRoot, *headVer) {
	slot := &r.table.slots[b]
	old := slot.Load()
	if old != nil && old.epoch < minPin {
		old.prev.Store(nil)
	}
	hv := &headVer{oid: h, ver: r.ver + 1}
	hv.prev.Store(old)
	slot.Store(hv)
	return &shardRoot{
		nbuckets: r.nbuckets,
		count:    uint64(int64(r.count) + delta),
		ver:      hv.ver,
		table:    r.table,
		index:    r.index,
	}, hv
}

// reindex brings the index an unpublished root inherited up to date
// with the one mutation of bucket b that made the root (rootIndex.apply
// has the arguments).
func (r *shardRoot) reindex(b uint64, key []byte, match, fresh pmemobj.Oid, prefix, copies []pmemobj.Oid) {
	if r.index != nil {
		r.index = r.index.apply(ixPage(b), key, match, fresh, prefix, copies)
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
	released bool
}

// Snapshot pins the current epoch and captures every shard's published
// root.
func (s *Store) Snapshot() *Snap {
	sn := &Snap{s: s, epoch: s.pin(), roots: make([]*shardRoot, len(s.shards))}
	for i := range s.shards {
		sn.roots[i] = s.shards[i].root.Load()
	}
	return sn
}

// Get returns the value stored under key in the snapshot's view.
func (sn *Snap) Get(key []byte) ([]byte, bool, error) {
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
// path: the next writes to a shard free its eligible batches (and
// open() drains everything), so a releasing reader never pays for
// persistent-transaction frees or queues on shard locks.
// Call Store.Reclaim for an explicit synchronous sweep. Idempotent.
func (sn *Snap) Release() error {
	if sn.released {
		return nil
	}
	sn.released = true
	sn.s.unpin(sn.epoch)
	return nil
}

// findChain walks bucket b of root for key and returns the entries it
// walked, head first — the COW prefix and then, when the key is there,
// the matching entry, which is also returned as match (null when
// absent) — and the chain following the match. The walk is cut from the
// shard's scratch: it is valid until the shard lock drops.
func (s *Store) findChain(c *ctx, sh *shard, root *shardRoot, b uint64, key []byte) (walk []pmemobj.Oid, match, rest pmemobj.Oid) {
	walk = sh.chain[:0]
	for entry := root.head(b); !entry.IsNull() && c.Err() == nil; {
		walk = append(walk, entry)
		ep := c.Direct(entry)
		found := s.keyEqual(c, ep, key)
		next := c.LoadOid(ep, enNext)
		if found {
			match, rest = entry, next
			break
		}
		entry = next
	}
	sh.chain = walk[:0]
	metProbeLength.Observe(uint64(len(walk)))
	return walk, match, rest
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

// copyEntry clones one entry with a new next pointer, reading it
// through the shard's scratch buffer. Caller holds sh.mu.
func (s *Store) copyEntry(c *ctx, tx *pmemobj.Tx, sh *shard, entry, next pmemobj.Oid) pmemobj.Oid {
	ep := c.Direct(entry)
	klen := c.Load(ep, enKLen)
	vlen := c.Load(ep, enVLen)
	data := c.AppendBytes(sh.scratch[:0], ep, s.entryDataOff(), klen+vlen)
	if c.Err() != nil {
		return pmemobj.OidNull
	}
	sh.scratch = data
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
func (s *Store) copyChain(c *ctx, tx *pmemobj.Tx, sh *shard, prefix []pmemobj.Oid, tail pmemobj.Oid, indexed bool) (head pmemobj.Oid, copies []pmemobj.Oid) {
	if indexed {
		copies = make([]pmemobj.Oid, len(prefix))
	}
	head = tail
	for i := len(prefix) - 1; i >= 0 && c.Err() == nil; i-- {
		head = s.copyEntry(c, tx, sh, prefix[i], head)
		if indexed {
			copies[i] = head
		}
	}
	return head, copies
}

// newRetireNodes allocates, inside tx, the retire nodes that list the
// superseded oids — retireNodeMax to a node, each linked to the next —
// and returns them oldest first, in the shard's scratch. linkRetire
// makes them reachable.
func (s *Store) newRetireNodes(c *ctx, tx *pmemobj.Tx, sh *shard, retired []pmemobj.Oid) []pmemobj.Oid {
	nodes := sh.nodes[:0]
	for start := 0; start < len(retired) && c.Err() == nil; start += retireNodeMax {
		chunk := retired[start:min(start+retireNodeMax, len(retired))]
		node, err := c.RT.TxAlloc(tx, s.retireNodeSize(len(chunk)))
		if err != nil {
			c.Fail(err)
			break
		}
		np := c.Direct(node)
		c.Store(np, s.rnCountOff(), uint64(len(chunk)))
		for i, oid := range chunk {
			c.StoreOid(np, s.rnOidOff(i), oid)
		}
		if len(nodes) > 0 {
			c.StoreOid(c.Direct(nodes[len(nodes)-1]), rnNext, node)
		}
		nodes = append(nodes, node)
	}
	sh.nodes = nodes[:0]
	return nodes
}

// linkRetire appends nodes to the tail of the shard's persistent retire
// chain (the oldest node stays at the head, where reclaim unlinks in
// O(1)) — from the shard header when the chain is empty, or when folded
// says this transaction has freed its only node. Runs in the caller's
// transaction, so the retire is atomic with the supersede. The volatile
// queue and tail are the caller's to update after the commit succeeds.
func (s *Store) linkRetire(c *ctx, tx *pmemobj.Tx, sh *shard, nodes []pmemobj.Oid, folded bool) {
	if len(nodes) == 0 || c.Err() != nil {
		return
	}
	tail := sh.retireTail
	if folded && len(sh.retired) == 1 {
		tail = pmemobj.OidNull
	}
	if tail.IsNull() {
		c.SnapshotField(tx, sh.hdr, s.shRetireOff(), uint64(s.oidSize))
		c.StoreOid(c.Direct(sh.hdr), s.shRetireOff(), nodes[0])
	} else {
		c.SnapshotField(tx, tail, rnNext, uint64(s.oidSize))
		c.StoreOid(c.Direct(tail), rnNext, nodes[0])
	}
}

// persistPublish writes the durable side of one COW mutation — the new
// bucket head, the updated count, and the link to the retire nodes of
// the superseded versions — all in the caller's transaction.
func (s *Store) persistPublish(c *ctx, tx *pmemobj.Tx, sh *shard, b uint64, head pmemobj.Oid, delta int64, nodes []pmemobj.Oid, folded bool) {
	if c.Err() != nil {
		return
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
	s.linkRetire(c, tx, sh, nodes, folded)
}

// publish swaps in the new immutable root, then reads the epoch once —
// for hv, the head version the root made current (nil after a rehash,
// whose fresh table has nothing older to cut), and for the retire
// nodes, which it queues — and advances it. Caller holds sh.mu and has
// committed the matching persistent state.
//
// The root store precedes the epoch read, for both uses alike. A reader
// that still loads the older root pinned before this store, so its pin
// is no later than the epoch read here: while it stays pinned the stamp
// is not below minPin, and neither the batch is freed nor the version's
// predecessor cut (pin has the store/load half of the argument). An
// epoch read before the store would not bound that reader: another
// shard's publish can advance the epoch in between, and a reader pinned
// at the advanced epoch can still load the older root.
func (s *Store) publish(sh *shard, root *shardRoot, hv *headVer, nodes []pmemobj.Oid) {
	sh.root.Store(root)
	e := s.epoch.Load()
	if hv != nil {
		hv.epoch = e
	}
	for _, n := range nodes {
		sh.retired = append(sh.retired, retireBatch{epoch: e, node: n})
	}
	if len(nodes) > 0 {
		sh.retireTail = nodes[len(nodes)-1]
	}
	s.epoch.Add(1)
}

// write is Put (del false) and Delete (del true) under snapshot
// isolation: copy-on-write of the touched chain prefix, atomic root
// publication, and — in the same transaction — reclamation of the
// shard's oldest retire node. The result is Delete's: whether the key
// was there (a put reports true).
func (s *Store) write(tr *trace.Req, key, value []byte, del bool) (bool, error) {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	root := sh.root.Load()
	b := s.bucketOf(h, root.nbuckets)
	acc := s.proto
	c := &acc
	c.Trace = tr

	// Probe outside the transaction; the shard lock keeps the chain
	// stable between probe and commit.
	retired, match, rest := s.findChain(c, sh, root, b, key)
	if err := c.Take(); err != nil {
		return false, err
	}
	// A found key supersedes itself and, their next fields changing,
	// every entry in front of it.
	var prefix []pmemobj.Oid
	delta := int64(0)
	switch {
	case !match.IsNull():
		prefix = retired[:len(retired)-1]
		if del {
			delta = -1
		}
	case del:
		return false, nil
	default:
		// Insert at head: nothing to copy, nothing to retire.
		delta = 1
		retired, rest = nil, root.head(b)
	}
	var newHead, fresh pmemobj.Oid
	var nodes, copies []pmemobj.Oid
	folded := false
	err := c.Run(func(tx *pmemobj.Tx) {
		tail := rest
		if !del {
			fresh = s.newEntry(c, tx, key, value, rest)
			tail = fresh
		}
		newHead, copies = s.copyChain(c, tx, sh, prefix, tail, root.index != nil)
		nodes = s.newRetireNodes(c, tx, sh, retired)
		// Every allocation of the transaction is behind it: from here on
		// only a corrupt store fails (foldReclaim has the reason).
		folded = s.foldReclaim(c, tx, sh)
		s.persistPublish(c, tx, sh, b, newHead, delta, nodes, folded)
	})
	if err != nil {
		return false, err
	}
	if folded {
		sh.dropRetired(1)
		metReclaimsFolded.Inc()
	}
	next, hv := root.withHead(b, newHead, delta, s.minPin.Load())
	next.reindex(b, key, match, fresh, prefix, copies)
	s.publish(sh, next, hv, nodes)
	if err := s.maybeRehash(sh, tr); err != nil {
		return true, err
	}
	// The batch just queued waits for the next write to the shard. Only
	// a backlog — a rehash, a long snapshot released — drains here.
	if len(sh.retired) > 1 {
		return true, s.drainShard(sh, c, tr)
	}
	return true, nil
}

// maybeRehash doubles the bucket array when the load factor exceeds
// one. Every entry is copied — published roots may reference
// any old entry, and relinking would mutate its next field — and the
// old population retires as one batch. The old bucket array is freed
// in-transaction: no reader dereferences the persistent bucket array.
// Caller holds sh.mu.
func (s *Store) maybeRehash(sh *shard, tr *trace.Req) error {
	root := sh.root.Load()
	if root.count <= root.nbuckets {
		return nil
	}
	span := tr.Span(trace.PhaseMaint)
	defer span.End()

	start := time.Now()
	newN := root.nbuckets * 2
	acc := s.proto
	c := &acc
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
			cp := s.copyEntry(c, tx, sh, entry, newRoot.head(nb))
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
		nodes = s.newRetireNodes(c, tx, sh, retired)
		s.linkRetire(c, tx, sh, nodes, false)
	})
	if err != nil {
		return err
	}
	if ixb != nil {
		newRoot.index = ixb.index()
		metIndexBuilds.Inc()
	}
	s.publish(sh, newRoot, nil, nodes)
	observeRehash(start)
	return nil
}

// foldReclaim frees the shard's oldest retire node inside the writer's
// transaction tx, when every pinned snapshot has moved past it, and
// reports whether it did: one node at most, so a write pays for at most
// retireNodeMax frees besides its own work. The batch the same write
// retires is never the one freed — it is queued only after the commit —
// so a reader pinned at the current epoch keeps every entry it can
// reach. The caller drops the batch from the volatile queue once the
// transaction has committed; an abort leaves chain and queue as they
// were.
//
// The writer calls it after its last allocation. An allocation is what
// fails in a healthy store — a value too large, a full pool — and the
// sanitizer variants update their shadow state when TxFree is called,
// not when the transaction commits: a fold followed by an abort would
// leave them refusing accesses to versions that are still on the chain.
func (s *Store) foldReclaim(c *ctx, tx *pmemobj.Tx, sh *shard) bool {
	if c.Err() != nil || len(sh.retired) == 0 || sh.retired[0].epoch >= s.minPin.Load() {
		return false
	}
	span := c.Trace.Span(trace.PhaseMaint)
	s.freeOldestNode(c, tx, sh)
	span.End()
	return true
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
	c.Trace = tr
	freed := 0
	defer func() { sh.dropRetired(freed) }()
	for freed < len(sh.retired) && sh.retired[freed].epoch < min {
		if err := c.Run(func(tx *pmemobj.Tx) { s.freeOldestNode(c, tx, sh) }); err != nil {
			return err
		}
		freed++
		metReclaimsStandalone.Inc()
	}
	return nil
}

// dropRetired removes the n oldest batches from the volatile queue,
// moving the rest to the front of the array so that the steady state —
// one batch in, one out — keeps reusing it.
func (sh *shard) dropRetired(n int) {
	sh.retired = sh.retired[:copy(sh.retired, sh.retired[n:])]
	if len(sh.retired) == 0 {
		sh.retireTail = pmemobj.OidNull
	}
}

// freeOldestNode frees every version listed by the chain-head retire
// node, unlinks it, and frees the node itself, all inside tx.
func (s *Store) freeOldestNode(c *ctx, tx *pmemobj.Tx, sh *shard) {
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
		if err := c.Run(func(tx *pmemobj.Tx) { s.freeOldestNode(c, tx, sh) }); err != nil {
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
		if h := c.LoadOid(bp, int64(b)*s.oidSize); !h.IsNull() {
			r.setHead(b, h)
		}
	}
	return r, c.Take()
}

// walkRoot calls fn for every entry reachable from root, bucket by
// bucket, with the entry's bucket, its pointer and its key loaded
// through the hooks. Every key is read into the same buffer, so key is
// valid until fn returns and fn copies what it keeps. It stops at the
// first error, left pending on c.
func (s *Store) walkRoot(c *ctx, root *shardRoot, fn func(b uint64, entry pmemobj.Oid, ep uint64, key []byte)) {
	var scratch []byte
	for b := uint64(0); b < root.nbuckets && c.Err() == nil; b++ {
		entry := root.head(b)
		for !entry.IsNull() && c.Err() == nil {
			ep := c.Direct(entry)
			klen := c.Load(ep, enKLen)
			key := c.AppendBytes(scratch[:0], ep, s.entryDataOff(), klen)
			if c.Err() != nil {
				return
			}
			scratch = key
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
	acc := s.proto
	c := &acc
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
// A writer frees one such batch per mutation, inside its transaction,
// and leaves its own for the next; Reclaim is the explicit synchronous
// sweep for quiescent stores (a test asserting pool occupancy, or a
// caller that just released the last snapshot and wants the space back
// now).
func (s *Store) Reclaim() error {
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
