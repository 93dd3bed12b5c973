package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hooks"
	"repro/internal/pmem"
	"repro/internal/pmemcheck"
	"repro/internal/pmemobj"
	"repro/internal/telemetry"
	"repro/internal/variant"
)

// occupancy describes how a store's keys sit in its buckets.
type occupancy struct {
	keys, buckets, occupied uint64
	maxChain                uint64
	// walked is the entries a Get of every stored key walks in total: a
	// chain of length L costs 1+2+…+L.
	walked uint64
}

func (o occupancy) meanWalk() float64 { return float64(o.walked) / float64(o.keys) }
func (o occupancy) occupiedShare() float64 {
	return float64(o.occupied) / float64(o.buckets)
}

// measureOccupancy walks every shard's persistent chains and checks on
// the way that each entry sits where bucketOf says.
func measureOccupancy(t testing.TB, s *Store) occupancy {
	t.Helper()
	var o occupancy
	c := newCtx(s.rt)
	for i := range s.shards {
		root, err := s.loadRoot(c, &s.shards[i])
		if err != nil {
			t.Fatal(err)
		}
		chains := make([]uint64, root.nbuckets)
		s.walkRoot(c, root, func(b uint64, _ pmemobj.Oid, _ uint64, key []byte) {
			if h := hashKey(key); s.shardFor(h) != &s.shards[i] || s.bucketOf(h, root.nbuckets) != b {
				t.Fatalf("key %q sits in shard %d bucket %d of %d, not where bucketOf puts it", key, i, b, root.nbuckets)
			}
			chains[b]++
		})
		if err := c.Take(); err != nil {
			t.Fatal(err)
		}
		o.buckets += root.nbuckets
		for _, l := range chains {
			o.keys += l
			o.walked += l * (l + 1) / 2
			o.maxChain = max(o.maxChain, l)
			if l > 0 {
				o.occupied++
			}
		}
	}
	return o
}

// checkSpread holds a store at load factor <= 1 to what a hash table
// should look like; bucket aliasing between the shard and the bucket
// choice fails all three figures by an order of magnitude.
func checkSpread(t testing.TB, o occupancy) {
	t.Helper()
	if o.occupiedShare() < 0.40 || o.maxChain > 10 || o.meanWalk() > 2 {
		t.Errorf("%d keys in %d buckets: %.1f%% occupied (want >= 40%%), longest chain %d (want <= 10), %.2f entries walked per hit (want <= 2)",
			o.keys, o.buckets, 100*o.occupiedShare(), o.maxChain, o.meanWalk())
	}
}

// TestPlacementOccupancy: the ledger's key shape on the default shard
// count, then other shard counts and another key shape, so the bucket
// function is not tuned to one of them.
func TestPlacementOccupancy(t *testing.T) {
	mixed := func(i int) []byte { return []byte(fmt.Sprintf("user/%x/profile-%d", i*2654435761, i%97)) }
	for _, tc := range []struct {
		name   string
		shards uint64
		key    func(int) []byte
	}{
		{"default-shards", 0, ledgerKey},
		{"one-shard", 1, ledgerKey},
		{"seven-shards", 7, ledgerKey},
		{"mixed-keys", 0, mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(env.RT, WithShards(tc.shards))
			if err != nil {
				t.Fatal(err)
			}
			const n = 20000
			for i := 0; i < n; i++ {
				if err := s.Put(tc.key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			o := measureOccupancy(t, s)
			if o.keys != n {
				t.Fatalf("walk found %d keys, stored %d", o.keys, n)
			}
			checkSpread(t, o)
			t.Logf("%d buckets: %.1f%% occupied, longest chain %d, %.2f entries per hit",
				o.buckets, 100*o.occupiedShare(), o.maxChain, o.meanWalk())
		})
	}
}

// legacyStore lays out in rt's pool the store a build from before the
// placement word wrote — the root is {nshards, dir} and no longer — and
// returns a handle legacyPut can fill. The handle has no volatile MVCC
// state: it writes the persistent image and nothing else.
func legacyStore(t testing.TB, rt hooks.Runtime, nshards uint64) *Store {
	t.Helper()
	pool := rt.Pool()
	s := &Store{rt: rt, pool: pool, oidSize: int64(pool.OidPersistedSize())}
	legacyRoot := 8 + uint64(s.oidSize)
	root, err := rt.Root(legacyRoot)
	if err != nil {
		t.Fatal(err)
	}
	c := newCtx(rt)
	var dir pmemobj.Oid
	if err := c.Run(func(tx *pmemobj.Tx) {
		dir = s.layoutShards(c, tx, nshards)
		c.Snapshot(tx, root, legacyRoot)
		rp := c.Direct(root)
		c.Store(rp, 0, nshards)
		c.StoreOid(rp, rootDir, dir)
	}); err != nil {
		t.Fatal(err)
	}
	s.shards = make([]shard, nshards)
	for i := range s.shards {
		s.shards[i].hdr = c.LoadOid(c.Direct(dir), int64(i)*s.oidSize)
	}
	if err := c.Take(); err != nil {
		t.Fatal(err)
	}
	return s
}

// legacyPut inserts a key the store does not hold where the old rule
// put it: bucket hash mod nbuckets, which for a multiple-of-nshards
// bucket count is one bucket in nshards. This is the only place the old
// rule is written down.
func legacyPut(t testing.TB, s *Store, key, value []byte) {
	t.Helper()
	h := hashKey(key)
	sh := s.shardFor(h)
	c := newCtx(s.rt)
	if err := c.Run(func(tx *pmemobj.Tx) {
		hp := c.Direct(sh.hdr)
		b := h % c.Load(hp, shNBuckets)
		head := c.LoadOid(c.Direct(c.LoadOid(hp, shBuckets)), int64(b)*s.oidSize)
		s.persistPublish(c, tx, sh, b, s.newEntry(c, tx, key, value, head), 1, nil, false)
	}); err != nil {
		t.Fatal(err)
	}
}

// ledgerKey is the key shape of benchmarks/ledger.
func ledgerKey(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }
func legacyVal(i int) []byte { return []byte(fmt.Sprintf("value-of-%d", i)) }

// legacyPairs is the content of the images the migration tests open.
func legacyPairs(n int) map[string]string {
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[string(ledgerKey(i))] = string(legacyVal(i))
	}
	return m
}

// legacyImage fills a fresh pool of the given kind with a legacy store
// holding pairs.
func legacyImage(t testing.TB, kind variant.Kind, opts variant.Options, nshards uint64, pairs map[string]string) *variant.Env {
	t.Helper()
	env, err := variant.New(kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := legacyStore(t, env.RT, nshards)
	for k, v := range pairs {
		legacyPut(t, old, []byte(k), []byte(v))
	}
	return env
}

// readPlacement returns the store's persisted placement version.
func readPlacement(t testing.TB, s *Store) uint64 {
	t.Helper()
	root, err := s.rt.Root(s.rootSize())
	if err != nil {
		t.Fatal(err)
	}
	c := newCtx(s.rt)
	v := c.Load(c.Direct(root), s.rootPlacementOff())
	if err := c.Take(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestLegacyImageMigrates: a version-0 image opens with every key
// readable through every read path, the version stamped, the keys
// spread, and not one block more allocated than before. The subtests
// keep the names they had beside a locked read mode, since removed.
func TestLegacyImageMigrates(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	const n = 2500 // load factor 0.61 on 64 shards of 64 buckets
	for _, kind := range variant.Kinds {
		t.Run(string(kind)+"/noMVCC=false", func(t *testing.T) {
			opts := variant.Options{PoolSize: 32 << 20}
			env := legacyImage(t, kind, opts, defaultShards, legacyPairs(n))
			before := env.Pool.Stats()
			migrations, rehashes := metLayoutMigrations.Load(), metRehashes.Load()

			s, err := Open(env.RT)
			if err != nil {
				t.Fatal(err)
			}
			if got := readPlacement(t, s); got != placementVersion {
				t.Errorf("placement word = %d after open, want %d", got, placementVersion)
			}
			if got := metLayoutMigrations.Load() - migrations; got != 1 {
				t.Errorf("spp_kv_layout_migrations_total moved by %d, want 1", got)
			}
			if got := metRehashes.Load() - rehashes; got != defaultShards {
				t.Errorf("spp_kv_rehashes_total moved by %d, want one per shard (%d)", got, defaultShards)
			}
			o := measureOccupancy(t, s)
			if o.keys != n {
				t.Fatalf("walk finds %d keys, image held %d", o.keys, n)
			}
			checkSpread(t, o)

			sn := s.Snapshot()
			for i := 0; i < n; i++ {
				for name, get := range map[string]func([]byte) ([]byte, bool, error){"Get": s.Get, "Snap.Get": sn.Get} {
					if v, ok, err := get(ledgerKey(i)); err != nil || !ok || !bytes.Equal(v, legacyVal(i)) {
						t.Fatalf("%s(%s) = %q, %v, %v", name, ledgerKey(i), v, ok, err)
					}
				}
			}
			if err := sn.Release(); err != nil {
				t.Fatal(err)
			}
			want := make([]string, n)
			for i := range want {
				want[i] = string(ledgerKey(i)) + "=" + string(legacyVal(i))
			}
			if got := scanAll(t, s.Scan, nil, nil); !slices.Equal(got, want) {
				t.Fatalf("Scan returns %d rows, image held %d", len(got), n)
			}
			if cnt, err := s.Count(); err != nil || cnt != n {
				t.Fatalf("Count = %d, %v", cnt, err)
			}

			if err := s.Reclaim(); err != nil {
				t.Fatal(err)
			}
			after := env.Pool.Stats()
			if after.AllocatedObjects != before.AllocatedObjects || after.AllocatedBytes != before.AllocatedBytes {
				t.Errorf("migration changed occupancy: %d objects / %d bytes, image had %d / %d",
					after.AllocatedObjects, after.AllocatedBytes, before.AllocatedObjects, before.AllocatedBytes)
			}

			// A second open finds the stamp and leaves the store alone.
			if _, err := Open(env.RT); err != nil {
				t.Fatal(err)
			}
			if got := metLayoutMigrations.Load() - migrations; got != 1 {
				t.Errorf("reopening a migrated store migrated again (%d migrations)", got)
			}
		})
	}
}

// TestLayoutTelemetry moves the hash-layout series: every point
// operation observes the entries it walked, a load-factor doubling
// counts and times one rehash, and nothing moves while telemetry is
// off. The subtest keeps the name it had beside a locked read mode,
// since removed.
func TestLayoutTelemetry(t *testing.T) {
	t.Run("noMVCC=false", func(t *testing.T) {
		env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(env.RT, WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		type series struct{ probes, walked, rehashes, timed uint64 }
		read := func() series {
			return series{metProbeLength.Count(), metProbeLength.Sum(), metRehashes.Load(), metRehashNS.Count()}
		}
		moved := func(op func()) series {
			t.Helper()
			before := read()
			op()
			after := read()
			return series{after.probes - before.probes, after.walked - before.walked,
				after.rehashes - before.rehashes, after.timed - before.timed}
		}
		chain := sameBucketKeys(s, 3)
		put := func(k []byte, v string) {
			t.Helper()
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if got := moved(func() { put(chain[0], "off") }); got != (series{}) {
			t.Errorf("telemetry off, yet a Put moved %+v", got)
		}
		telemetry.Enable()
		t.Cleanup(telemetry.Disable)

		// Inserts walk the chain to its end: 1 entry, then 2.
		if got, want := moved(func() { put(chain[1], "v"); put(chain[2], "v") }), (series{probes: 2, walked: 3}); got != want {
			t.Errorf("two inserts behind one entry moved %+v, want %+v", got, want)
		}
		// chain[0] went in first and sits deepest.
		if got, want := moved(func() {
			if _, ok, err := s.Get(chain[0]); err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
		}), (series{probes: 1, walked: 3}); got != want {
			t.Errorf("Get of the deepest of 3 moved %+v, want %+v", got, want)
		}
		if got, want := moved(func() {
			if ok, err := s.Delete(chain[1]); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
		}), (series{probes: 1, walked: 2}); got != want {
			t.Errorf("Delete of the middle of 3 moved %+v, want %+v", got, want)
		}
		if got, want := moved(func() { put(chain[0], "a longer value") }), (series{probes: 1, walked: 2}); got != want {
			t.Errorf("overwrite of the deeper of 2 moved %+v, want %+v", got, want)
		}
		if got := moved(func() {
			for i := 0; i <= initialBuckets; i++ {
				put([]byte(fmt.Sprintf("grow-%04d", i)), "v")
			}
		}); got.rehashes != 1 || got.timed != 1 {
			t.Errorf("growing past load factor one moved %+v, want one timed rehash", got)
		}

		var sb bytes.Buffer
		telemetry.Default.WriteProm(&sb)
		for _, name := range []string{"spp_kv_probe_length", "spp_kv_rehashes_total",
			"spp_kv_rehash_ns", "spp_kv_layout_migrations_total"} {
			if !bytes.Contains(sb.Bytes(), []byte("# HELP "+name+" ")) {
				t.Errorf("%s has no help text in the exposition", name)
			}
		}
	})
}

// TestNewerPlacementRefused: an image stamped by a later build's rule
// must not be served under this one's.
func TestNewerPlacementRefused(t *testing.T) {
	s, env := newStore(t, variant.SPP)
	root, err := env.RT.Root(s.rootSize())
	if err != nil {
		t.Fatal(err)
	}
	c := newCtx(env.RT)
	if err := c.Run(func(tx *pmemobj.Tx) {
		c.SnapshotField(tx, root, s.rootPlacementOff(), 8)
		c.Store(c.Direct(root), s.rootPlacementOff(), placementVersion+1)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(env.RT); err == nil {
		t.Fatal("opened a store whose placement version is newer than this build's")
	}
}

// TestMigrationCrashExplored crashes the open of a version-0 image at
// every fence of its migration: each crash image must open again to the
// full key set, stamped, with exactly the blocks the uninterrupted
// migration ends with. The subtest keeps the name it had beside a
// locked read mode, since removed.
func TestMigrationCrashExplored(t *testing.T) {
	const shards, n = 4, 60
	t.Run("noMVCC=false", func(t *testing.T) {
		opts := variant.Options{PoolSize: 4 << 20, HeapSize: 1 << 20}
		env := legacyImage(t, variant.SPP, opts, shards, legacyPairs(n))
		base := make([]byte, env.Dev.Size())
		copy(base, env.Dev.Data())

		tr := pmemcheck.NewTracker()
		env.Dev.EnableTracking(tr)
		if _, err := Open(env.RT); err != nil {
			t.Fatal(err)
		}
		env.Dev.DisableTracking()
		want := env.Pool.Stats()

		if rep := pmemcheck.Analyze(tr.Events()); !rep.Clean() {
			t.Fatalf("protocol violations: %v", rep.Violations[:min(3, len(rep.Violations))])
		}
		states, err := pmemcheck.Explore(base, tr.Events(),
			pmemcheck.ExploreOptions{EveryNthFence: 1, MaxSingles: 1},
			func(img []byte) error {
				dev := pmem.NewPool("migrate-crash", uint64(len(img)))
				copy(dev.Data(), img)
				env2, err := variant.AdoptConfig(variant.SPP, dev, opts)
				if err != nil {
					return err
				}
				s2, err := Open(env2.RT)
				if err != nil {
					return err
				}
				if v := readPlacement(t, s2); v != placementVersion {
					return fmt.Errorf("placement word %d after recovery", v)
				}
				for i := 0; i < n; i++ {
					if v, ok, err := s2.Get(ledgerKey(i)); err != nil || !ok || !bytes.Equal(v, legacyVal(i)) {
						return fmt.Errorf("Get(%s) = %q, %v, %v", ledgerKey(i), v, ok, err)
					}
				}
				if cnt, err := s2.Count(); err != nil || cnt != n {
					return fmt.Errorf("Count = %d, %v", cnt, err)
				}
				if got := env2.Pool.Stats(); got.AllocatedObjects != want.AllocatedObjects || got.AllocatedBytes != want.AllocatedBytes {
					return fmt.Errorf("%d objects / %d bytes allocated, an uninterrupted migration ends with %d / %d",
						got.AllocatedObjects, got.AllocatedBytes, want.AllocatedObjects, want.AllocatedBytes)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("inconsistent crash state: %v", err)
		}
		t.Logf("%d crash states consistent", states)
	})
}

// TestSafePMPreload: a 256 MB SafePM pool — whose 32 MB shadow
// allocation leaves the rest of the heap as one free run — takes the
// ledger's preload of 20 000 1-KiB values, every shard rehash on the way
// included.
func TestSafePMPreload(t *testing.T) {
	env, err := variant.New(variant.SafePM, variant.Options{PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := s.Put(ledgerKey(i), val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if cnt, err := s.Count(); err != nil || cnt != n {
		t.Fatalf("Count = %d, %v", cnt, err)
	}
}
