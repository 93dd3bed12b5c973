// Package kvstore is a concurrent persistent key-value store modeled
// on pmemkv's cmap engine (the non-experimental concurrent engine used
// in §VI-B): a sharded persistent hash map over libpmemobj, with
// volatile per-shard locks rebuilt on open and all persistent updates
// running inside transactions.
//
// The store runs with MVCC snapshot isolation (DESIGN.md §17): writers
// copy-on-write the chains they touch and publish immutable per-shard
// roots, readers pin an epoch and traverse with no locks, and
// superseded versions are reclaimed through persistent retire chains
// once the last pinning reader moves past them.
//
// Like every application in this repository, all PM accesses go
// through the hooks.Runtime instrumentation surface, so the store runs
// unmodified under native PMDK, SPP, SafePM and memcheck.
package kvstore

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hooks"
	"repro/internal/pmaccess"
	"repro/internal/pmemobj"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Store is an open KV store.
type Store struct {
	rt      hooks.Runtime
	pool    *pmemobj.Pool
	oidSize int64
	shards  []shard
	dir     pmemobj.Oid // shard directory: nshards embedded oids
	// proto is the accessor every read copies onto its own stack: what
	// pmaccess.New derives from the runtime, derived once.
	proto ctx

	// MVCC state: the global version epoch, the pinned-epoch refcounts
	// gating reclamation, and minPin caching the smallest pinned epoch
	// (^0 when none) so writers check reclaim eligibility with one
	// atomic load.
	epoch  atomic.Uint64
	pinMu  sync.Mutex
	pins   map[uint64]int
	minPin atomic.Uint64
	// indexed is set once every shard root carries its ordered index
	// (activateIndex); writers never read it, they look at their root.
	indexed atomic.Bool
	// scanPool parks the workspaces ordered scans run in (scan.go).
	scanPool sync.Pool
}

type shard struct {
	// mu serialises the shard's writers; Get, Scan and Count never
	// take it.
	mu  sync.Mutex
	hdr pmemobj.Oid

	// root is the published immutable view: writers swap in a fresh
	// shardRoot per mutation, readers load it lock-free.
	root atomic.Pointer[shardRoot]
	// retired queues this shard's superseded-version batches, oldest
	// first, each backed by a persistent retire node; retireTail is
	// the last node of the persistent chain. Both guarded by mu.
	retired    []retireBatch
	retireTail pmemobj.Oid
	// Writer scratch, reused under mu so a steady-state write allocates
	// none of it: the entries findChain walks (which a write then
	// retires), the retire nodes of one transaction, and the bytes of
	// the entry copyEntry is moving.
	chain   []pmemobj.Oid
	nodes   []pmemobj.Oid
	scratch []byte
}

// Shard header fields: {count u64, nbuckets u64, buckets oid,
// retire oid} — retire heads the persistent retire-node chain (its
// offset depends on the oid width, see shRetireOff).
const (
	shCount    = 0
	shNBuckets = 8
	shBuckets  = 16

	// Entry fields: {klen u64, vlen u64, next oid, key..., value...}.
	enKLen = 0
	enVLen = 8
	enNext = 16

	defaultShards  = 64
	initialBuckets = 64

	// Root layout: {nshards u64, dir oid, placement u64}. The placement
	// word names the rule that maps a key to its bucket (bucketOf). A
	// store written before the word existed reads 0, which says only
	// that an entry may sit in any bucket of its shard: open re-buckets
	// such a store before serving from it.
	rootDir          = 8
	placementVersion = 1
)

func (s *Store) rootSize() uint64        { return 16 + uint64(s.oidSize) }
func (s *Store) rootPlacementOff() int64 { return rootDir + s.oidSize }
func (s *Store) shardHdrSize() uint64    { return 16 + 2*uint64(s.oidSize) }
func (s *Store) shRetireOff() int64      { return shBuckets + s.oidSize }
func (s *Store) entryDataOff() int64     { return enNext + s.oidSize }
func (s *Store) entrySize(klen, vlen int) uint64 {
	return uint64(s.entryDataOff()) + uint64(klen) + uint64(vlen)
}

// Option configures Open. The zero configuration opens (or creates)
// the store with defaults, so Open(rt) needs no options.
type Option func(*config)

type config struct {
	shards uint64
}

// WithShards sets the shard count for a store created by this Open
// (0 means the default). The count is persisted at creation; reopening
// an existing store always uses its stored count.
func WithShards(n uint64) Option {
	return func(c *config) { c.shards = n }
}

// Open opens (or creates) the store in the runtime's pool.
func Open(rt hooks.Runtime, opts ...Option) (*Store, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return open(rt, c)
}

func open(rt hooks.Runtime, cfg config) (*Store, error) {
	shards := cfg.shards
	if shards == 0 {
		shards = defaultShards
	}
	pool := rt.Pool()
	s := &Store{rt: rt, pool: pool, oidSize: int64(pool.OidPersistedSize()), proto: *newCtx(rt)}
	s.pins = make(map[uint64]int)
	s.minPin.Store(^uint64(0))
	root, err := rt.Root(s.rootSize())
	if err != nil {
		return nil, err
	}
	c := newCtx(rt)
	nshards := c.Load(c.Direct(root), 0)
	if err := c.Take(); err != nil {
		return nil, err
	}
	if nshards == 0 {
		if err := s.initialize(root, shards); err != nil {
			return nil, err
		}
		nshards = shards
	}
	placement := c.Load(c.Direct(root), s.rootPlacementOff())
	if err := c.Take(); err != nil {
		return nil, err
	}
	if placement > placementVersion {
		return nil, fmt.Errorf("kvstore: store uses key placement %d, this build knows up to %d", placement, placementVersion)
	}
	// Rebuild the volatile shard table.
	dir := c.LoadOid(c.Direct(root), rootDir)
	s.dir = dir
	dp := c.Direct(dir)
	s.shards = make([]shard, nshards)
	for i := range s.shards {
		s.shards[i].hdr = c.LoadOid(dp, int64(i)*s.oidSize)
	}
	if err := c.Take(); err != nil {
		return nil, err
	}
	// Crash cleanup: retire nodes left on a chain list versions no
	// bucket reaches (the supersede and the retire commit atomically),
	// and no volatile snapshot survives a restart, so every chain
	// drains before the store serves.
	for i := range s.shards {
		if err := s.drainChain(&s.shards[i]); err != nil {
			return nil, err
		}
	}
	if placement != placementVersion {
		if err := s.migratePlacement(root); err != nil {
			return nil, err
		}
	}
	for i := range s.shards {
		r, err := s.loadRoot(c, &s.shards[i])
		if err != nil {
			return nil, err
		}
		s.shards[i].root.Store(r)
	}
	if telemetry.On() {
		s.registerTelemetry()
	}
	return s, nil
}

// initialize lays out the shards and fills the root — the placement
// version included — in one transaction.
func (s *Store) initialize(root pmemobj.Oid, nshards uint64) error {
	c := newCtx(s.rt)
	return c.Run(func(tx *pmemobj.Tx) {
		dir := s.layoutShards(c, tx, nshards)
		if c.Err() != nil {
			return
		}
		c.Snapshot(tx, root, s.rootSize())
		rp := c.Direct(root)
		c.Store(rp, 0, nshards)
		c.StoreOid(rp, rootDir, dir)
		c.Store(rp, s.rootPlacementOff(), placementVersion)
	})
}

// layoutShards allocates the shard directory and, per shard, a header
// and an empty bucket array, inside tx, and returns the directory.
func (s *Store) layoutShards(c *ctx, tx *pmemobj.Tx, nshards uint64) pmemobj.Oid {
	dir, err := s.rt.TxAlloc(tx, nshards*uint64(s.oidSize))
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	dp := c.Direct(dir)
	for i := uint64(0); i < nshards && c.Err() == nil; i++ {
		hdr, err := s.rt.TxAlloc(tx, s.shardHdrSize())
		if err != nil {
			c.Fail(err)
			break
		}
		buckets, err := s.rt.TxAlloc(tx, initialBuckets*uint64(s.oidSize))
		if err != nil {
			c.Fail(err)
			break
		}
		hp := c.Direct(hdr)
		c.Store(hp, shNBuckets, initialBuckets)
		c.StoreOid(hp, shBuckets, buckets)
		c.StoreOid(dp, int64(i)*s.oidSize, hdr)
	}
	return dir
}

// migratePlacement brings a placement-0 store — an entry may sit in any
// bucket of its shard — to the current rule: every shard is re-bucketed
// at its present bucket count, one transaction each, then the version
// is stamped in a transaction of its own. Re-bucketing is idempotent
// and nothing is served before the stamp, so a crash in between just
// migrates again at the next open. It runs before any root is
// published, which is why relinking in place is safe.
func (s *Store) migratePlacement(root pmemobj.Oid) error {
	c := newCtx(s.rt)
	for i := range s.shards {
		sh := &s.shards[i]
		n := c.Load(c.Direct(sh.hdr), shNBuckets)
		if err := c.Take(); err != nil {
			return err
		}
		if err := s.rehash(c, sh, n); err != nil {
			return err
		}
	}
	err := c.Run(func(tx *pmemobj.Tx) {
		c.SnapshotField(tx, root, s.rootPlacementOff(), 8)
		c.Store(c.Direct(root), s.rootPlacementOff(), placementVersion)
	})
	if err == nil {
		metLayoutMigrations.Inc()
	}
	return err
}

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return h.Sum64()
}

func (s *Store) shardFor(h uint64) *shard {
	return &s.shards[h%uint64(len(s.shards))]
}

// bucketOf is the placement rule: the bucket, of nbuckets, that holds
// the key hashing to h. shardFor spends h mod nshards, so the bucket
// comes from the quotient: within one shard the remainder is constant
// and, nbuckets being a multiple of the default shard count, would
// confine the shard to nbuckets/nshards of its buckets, while the
// quotients of its keys are as spread as the hash. Everything that
// locates an entry goes through here; placementVersion changes when
// this does.
func (s *Store) bucketOf(h, nbuckets uint64) uint64 {
	return h / uint64(len(s.shards)) % nbuckets
}

// keyScratch is the stack buffer keyEqual reads a stored key into; a
// longer key is still compared, through a buffer append allocates.
const keyScratch = 128

// keyEqual compares the stored key of an entry with key: one checked
// load of the length, one memory-intrinsic-checked copy of the bytes.
func (s *Store) keyEqual(c *ctx, ep uint64, key []byte) bool {
	if c.Load(ep, enKLen) != uint64(len(key)) {
		return false
	}
	var scratch [keyScratch]byte
	stored := c.AppendBytes(scratch[:0], ep, s.entryDataOff(), uint64(len(key)))
	return c.Err() == nil && string(stored) == string(key)
}

// Get returns the value stored under key in a slice of its own.
func (s *Store) Get(key []byte) ([]byte, bool, error) { return s.AppendGet(nil, key) }

// AppendGet appends the value stored under key to dst and returns the
// extended slice: the value leaves PM through one hook-checked copy,
// straight into the caller's buffer. When the key is absent or the
// lookup fails dst comes back as it was. The lookup pins the current
// epoch and walks the shard's published root with no shard lock.
func (s *Store) AppendGet(dst, key []byte) ([]byte, bool, error) {
	h := hashKey(key)
	c := s.proto
	e := s.pin()
	root := s.shardFor(h).root.Load()
	dst, ok := s.appendValue(&c, dst, root.head(s.bucketOf(h, root.nbuckets)), key)
	s.unpin(e)
	return dst, ok, c.Take()
}

// appendValue is the lookup every read shares: it walks the chain that
// starts at entry for key and appends the value found to dst. Every
// entry access goes through the instrumented accessor, so bounds and
// tag checks fire alike on a store read and a snapshot read; a failure
// stays pending on c and leaves dst as it was.
func (s *Store) appendValue(c *ctx, dst []byte, entry pmemobj.Oid, key []byte) ([]byte, bool) {
	var walked uint64
	found := false
	for !entry.IsNull() && c.Err() == nil {
		walked++
		ep := c.Direct(entry)
		if s.keyEqual(c, ep, key) {
			vlen := c.Load(ep, enVLen)
			dst = c.AppendBytes(dst, ep, s.entryDataOff()+int64(len(key)), vlen)
			found = c.Err() == nil
			break
		}
		entry = c.LoadOid(ep, enNext)
	}
	metProbeLength.Observe(walked)
	if c.Err() == nil {
		hitOrMiss(found, metGetsHit, metGetsMiss).Inc()
	}
	return dst, found
}

// Put stores value under key, replacing any existing value.
func (s *Store) Put(key, value []byte) error { return s.PutTraced(nil, key, value) }

// PutTraced is Put for a traced request: the transaction attributes
// its begin/commit/flush/fence stage durations to tr, and any rehash
// or version reclamation the write triggers lands in tr's maint
// phase. Nil tr is Put.
func (s *Store) PutTraced(tr *trace.Req, key, value []byte) (err error) {
	defer func() {
		if err == nil {
			metPuts.Inc()
		}
	}()
	_, err = s.write(tr, key, value, false)
	return err
}

// rehash moves a shard's entries from its n buckets into a fresh array
// of n, relinking them in place, in one transaction. It walks every
// old bucket and places each entry by bucketOf alone, so it neither
// needs nor trusts the bucket an entry was found in. Only open's
// migratePlacement calls it, before any root is published, so nothing
// can hold an entry it relinks.
func (s *Store) rehash(c *ctx, sh *shard, n uint64) error {
	start := time.Now()
	err := c.Run(func(tx *pmemobj.Tx) {
		hp := c.Direct(sh.hdr)
		oldBuckets := c.LoadOid(hp, shBuckets)
		fresh, err := s.rt.TxAlloc(tx, n*uint64(s.oidSize))
		if err != nil {
			c.Fail(err)
			return
		}
		op := c.Direct(oldBuckets)
		np := c.Direct(fresh)
		for i := uint64(0); i < n && c.Err() == nil; i++ {
			entry := c.LoadOid(op, int64(i)*s.oidSize)
			for !entry.IsNull() && c.Err() == nil {
				ep := c.Direct(entry)
				next := c.LoadOid(ep, enNext)
				klen := c.Load(ep, enKLen)
				kb, err := hooks.LoadBytes(c.RT, c.RT.Gep(ep, s.entryDataOff()), klen)
				if err != nil {
					c.Fail(err)
					return
				}
				field := int64(s.bucketOf(hashKey(kb), n)) * s.oidSize
				c.SnapshotField(tx, entry, enNext, uint64(s.oidSize))
				ep = c.Direct(entry)
				c.StoreOid(ep, enNext, c.LoadOid(np, field))
				c.StoreOid(np, field, entry)
				entry = next
			}
		}
		if c.Err() != nil {
			return
		}
		c.SnapshotField(tx, sh.hdr, shBuckets, uint64(s.oidSize))
		c.StoreOid(c.Direct(sh.hdr), shBuckets, fresh)
		if err := c.RT.TxFree(tx, oldBuckets); err != nil {
			c.Fail(err)
		}
	})
	if err == nil {
		observeRehash(start)
	}
	return err
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) { return s.DeleteTraced(nil, key) }

// DeleteTraced is Delete attributing transaction stage durations to a
// traced request. Nil tr is Delete.
func (s *Store) DeleteTraced(tr *trace.Req, key []byte) (removed bool, err error) {
	defer func() {
		if err == nil {
			hitOrMiss(removed, metDeletesHit, metDeletesMiss).Inc()
		}
	}()
	return s.write(tr, key, nil, true)
}

// Count returns the total number of keys, summed from the published
// roots: no locks, no PM reads.
func (s *Store) Count() (uint64, error) {
	var total uint64
	for i := range s.shards {
		total += s.shards[i].root.Load().count
	}
	return total, nil
}

// ctx aliases the shared sticky-error accessor.
type ctx = pmaccess.Ctx

func newCtx(rt hooks.Runtime) *ctx { return pmaccess.New(rt) }
