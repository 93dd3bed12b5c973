package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/hooks"
	"repro/internal/pmemobj"
	"repro/internal/telemetry"
	"repro/internal/variant"
)

// inorder flattens a tree through the scan cursor.
func inorder(tree *ixNode) []*ixNode {
	var out []*ixNode
	var it ixIter
	for it.seek(tree, nil); it.node() != nil; it.next() {
		out = append(out, it.node())
	}
	return out
}

// checkRootIndex asserts the index invariant on one root: the in-order
// index equals the chain walk, keys and entry oids both. Only the SPP
// layouts persist an oid's size, so a walked oid may lack the size the
// allocator reported for the same entry.
func checkRootIndex(t testing.TB, s *Store, root *shardRoot) {
	t.Helper()
	if root.index == nil {
		t.Fatal("root carries no index")
	}
	want, err := s.collectRange(newCtx(s.rt), root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := inorder(root.index.tree)
	if len(got) != len(want) || uint64(len(got)) != root.count {
		t.Fatalf("index holds %d keys, walk finds %d, root counts %d", len(got), len(want), root.count)
	}
	for i := range got {
		g, w := root.index.entry(got[i]), want[i].entry
		if !bytes.Equal(got[i].key, want[i].key) || g.Pool != w.Pool || g.Off != w.Off || (w.Size != 0 && g.Size != w.Size) {
			t.Fatalf("index[%d] = %q -> %+v, walk has %q -> %+v", i, got[i].key, g, want[i].key, w)
		}
	}
	// Every slot no key owns must be free, or the tables leak entries.
	filled := 0
	for _, tbl := range root.index.slots {
		for _, e := range tbl {
			if !e.IsNull() {
				filled++
			}
		}
	}
	if filled != len(got) {
		t.Fatalf("slot tables hold %d entries for %d keys", filled, len(got))
	}
}

// checkStoreIndex asserts the invariant on every shard's current root.
func checkStoreIndex(t testing.TB, s *Store) {
	t.Helper()
	for i := range s.shards {
		checkRootIndex(t, s, s.shards[i].root.Load())
	}
}

// scanAll collects a scan of [lo, hi) as "key=value" strings.
func scanAll(t testing.TB, scan func(lo, hi []byte, fn func(k, v []byte) bool) error, lo, hi []byte) []string {
	t.Helper()
	var out []string
	if err := scan(lo, hi, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// modelRows renders a model the way scanAll renders a scan.
func modelRows(m map[string]string, lo, hi []byte) []string {
	var out []string
	for k, v := range m {
		if inRange([]byte(k), lo, hi) {
			out = append(out, k+"="+v)
		}
	}
	sort.Strings(out)
	return out
}

// TestIndexTreap drives the treap alone against a map: order, heap
// property, persistence of superseded versions, and that the shape an
// update history reaches is the shape a fresh build gives.
func TestIndexTreap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := make(map[string]uint32)
	var root *ixNode
	type version struct {
		root *ixNode
		keys []string
	}
	var kept []version
	sortedKeys := func() []string {
		ks := make([]string, 0, len(model))
		for k := range model {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	var checkHeap func(n *ixNode) int
	checkHeap = func(n *ixNode) int {
		if n == nil {
			return 0
		}
		for _, c := range []*ixNode{n.left, n.right} {
			if c != nil && c.prio > n.prio {
				t.Fatalf("heap order broken at %q", n.key)
			}
		}
		return 1 + max(checkHeap(n.left), checkHeap(n.right))
	}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("k%04d", rng.Intn(700))
		if rng.Intn(3) == 0 {
			root = ixDelete(root, []byte(k))
			delete(model, k)
		} else {
			root = ixPut(root, []byte(k), ixRef{slot: uint32(i)})
			model[k] = uint32(i)
		}
		if i%500 == 0 {
			kept = append(kept, version{root, sortedKeys()})
		}
	}
	got := inorder(root)
	want := sortedKeys()
	if len(got) != len(want) {
		t.Fatalf("index holds %d keys, model %d", len(got), len(want))
	}
	for i, n := range got {
		if string(n.key) != want[i] || n.ref.slot != model[want[i]] {
			t.Fatalf("index[%d] = %q -> %d, model %q -> %d", i, n.key, n.ref.slot, want[i], model[want[i]])
		}
	}
	if depth := checkHeap(root); depth > 40 {
		t.Errorf("treap of %d keys is %d deep", len(got), depth)
	}
	for _, v := range kept {
		old := inorder(v.root)
		if len(old) != len(v.keys) {
			t.Fatalf("superseded version changed size: %d keys, had %d", len(old), len(v.keys))
		}
		for i := range old {
			if string(old[i].key) != v.keys[i] {
				t.Fatalf("superseded version moved at %d: %q, had %q", i, old[i].key, v.keys[i])
			}
		}
	}
	// A fresh build over the same keys, added in any order, has the
	// same shape, and resolves every key to the entry added with it.
	rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	ixb := newIxBuilder(newShardRoot(2*ixPageSize, uint64(len(got))))
	for i, n := range got {
		ixb.add(uint64(i%(2*ixPageSize)), n.key, pmemobj.Oid{Off: uint64(n.ref.slot) + 1})
	}
	built := ixb.index()
	var same func(a, b *ixNode) bool
	same = func(a, b *ixNode) bool {
		if a == nil || b == nil {
			return a == b
		}
		return bytes.Equal(a.key, b.key) && built.entry(b).Off == uint64(a.ref.slot)+1 &&
			same(a.left, b.left) && same(a.right, b.right)
	}
	if !same(root, built.tree) {
		t.Error("incrementally maintained treap differs from a fresh build")
	}
	// A seek lands on the first key at or above lo.
	var it ixIter
	it.seek(root, []byte("k0350"))
	i := sort.SearchStrings(want, "k0350")
	if n := it.node(); n == nil || string(n.key) != want[i] {
		t.Errorf("seek(k0350) landed on %v, want %q", n, want[i])
	}
}

// sameBucketKeys returns n keys that s, a single-shard store at its
// initial geometry, places in one bucket, so together they form one
// chain.
func sameBucketKeys(s *Store, n int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		k := []byte(fmt.Sprintf("chain-%05d", i))
		if s.bucketOf(hashKey(k), initialBuckets) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestIndexPrefixCopy is the prefix-copy regression: overwriting or
// deleting the deepest entry of a chain re-allocates every entry in
// front of it, and the index must follow the bystanders to their
// copies. With no snapshot pinned the superseded entries are freed on
// the spot, so an index still naming them is a use-after-free: a trap
// under the variants that see temporal errors, a stale-index error or
// wrong bytes under the others.
func TestIndexPrefixCopy(t *testing.T) {
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			env, err := variant.New(kind, variant.Options{PoolSize: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(env.RT, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			keys := sameBucketKeys(s, 5)
			model := make(map[string]string)
			for i, k := range keys {
				model[string(k)] = fmt.Sprintf("v0-%d", i)
				if err := s.Put(k, []byte(model[string(k)])); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step string) {
				t.Helper()
				if err := s.Reclaim(); err != nil {
					t.Fatal(err)
				}
				// Reuse the freed blocks, so a stale oid reads foreign bytes.
				for i := 0; i < 8; i++ {
					k := []byte(fmt.Sprintf("filler-%s-%d", step, i))
					model[string(k)] = "filler-value"
					if err := s.Put(k, []byte(model[string(k)])); err != nil {
						t.Fatal(err)
					}
				}
				got, want := scanAll(t, s.Scan, nil, nil), modelRows(model, nil, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: scan = %v, want %v", step, got, want)
				}
				checkStoreIndex(t, s)
			}
			check("activate")
			// keys[0] went in first, so it sits deepest: the other four
			// are its COW prefix.
			model[string(keys[0])] = "v1-deepest-overwritten-with-a-longer-value"
			if err := s.Put(keys[0], []byte(model[string(keys[0])])); err != nil {
				t.Fatal(err)
			}
			check("overwrite-deepest")
			delete(model, string(keys[0]))
			if ok, err := s.Delete(keys[0]); err != nil || !ok {
				t.Fatalf("Delete deepest = %v, %v", ok, err)
			}
			check("delete-deepest")
			model[string(keys[2])] = "v2-middle"
			if err := s.Put(keys[2], []byte(model[string(keys[2])])); err != nil {
				t.Fatal(err)
			}
			check("overwrite-middle")
		})
	}
}

// TestSnapshotBeforeActivation: a snapshot pinned while the store had
// no index keeps its un-indexed roots, and must keep scanning its
// frozen view by walking them while another goroutine activates the
// index and writes through it.
func TestSnapshotBeforeActivation(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	model := make(map[string]string)
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("pre-%04d", i)
		model[k] = fmt.Sprintf("v%d", i)
		if err := s.Put([]byte(k), []byte(model[k])); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Snapshot()
	defer old.Release()
	if s.indexed.Load() || old.roots[0].index != nil {
		t.Fatal("store indexed before any scan")
	}
	frozen := modelRows(model, nil, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Scan(nil, nil, func(_, _ []byte) bool { return false }); err != nil {
			t.Error(err)
		}
		for i := 0; i < 400; i += 2 {
			k := fmt.Sprintf("pre-%04d", i)
			var err error
			if i%4 == 0 {
				_, err = s.Delete([]byte(k))
			} else {
				err = s.Put([]byte(k), []byte("rewritten"))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 5; round++ {
		if got := scanAll(t, old.Scan, nil, nil); !slices.Equal(got, frozen) {
			t.Fatalf("round %d: pre-activation snapshot moved: %d rows, want %d", round, len(got), len(frozen))
		}
	}
	wg.Wait()
	if !s.indexed.Load() {
		t.Fatal("Store.Scan did not activate the index")
	}
	if old.roots[0].index != nil {
		t.Fatal("activation reached into a pinned snapshot's root")
	}
	lo, hi := []byte("pre-0100"), []byte("pre-0200")
	if got, want := scanAll(t, old.Scan, lo, hi), modelRows(model, lo, hi); !slices.Equal(got, want) {
		t.Fatalf("pre-activation snapshot after activation: %d rows, want %d", len(got), len(want))
	}
	checkStoreIndex(t, s)
}

// TestIndexRehashReclaimUnderPin: an indexed snapshot stays exact while
// the shard under it rehashes (every entry re-allocated, index
// rebuilt), other snapshots come and go, and reclaim frees everything
// the pinned view does not hold; once it releases, occupancy returns
// to what the surviving keys need.
func TestIndexRehashReclaimUnderPin(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	put := func(i, gen int) {
		t.Helper()
		k := fmt.Sprintf("r%04d", i)
		model[k] = fmt.Sprintf("g%d-%d", gen, i)
		if err := s.Put([]byte(k), []byte(model[k])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		put(i, 0)
	}
	if got := scanAll(t, s.Scan, nil, nil); !slices.Equal(got, modelRows(model, nil, nil)) {
		t.Fatal("activating scan disagrees with the model")
	}
	pinned := s.Snapshot()
	frozen := modelRows(model, nil, nil)
	nbuckets := pinned.roots[0].nbuckets

	for i := 100; i < 400; i++ { // past two doublings per shard
		put(i, 1)
	}
	if s.shards[0].root.Load().nbuckets == nbuckets {
		t.Fatal("the churn did not rehash")
	}
	for i := 0; i < 400; i += 3 {
		k := fmt.Sprintf("r%04d", i)
		delete(model, k)
		if _, err := s.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	other := s.Snapshot()
	for i := 1; i < 400; i += 3 {
		put(i, 2)
	}
	if err := other.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, pinned.Scan, nil, nil); !slices.Equal(got, frozen) {
		t.Fatalf("pinned snapshot moved across rehash+reclaim: %d rows, want %d", len(got), len(frozen))
	}
	for _, r := range pinned.roots {
		checkRootIndex(t, s, r)
	}
	if got := scanAll(t, s.Scan, nil, nil); !slices.Equal(got, modelRows(model, nil, nil)) {
		t.Fatal("live scan disagrees with the model after rehash+reclaim")
	}
	checkStoreIndex(t, s)

	held := env.Pool.Stats().AllocatedObjects
	if err := pinned.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if after := env.Pool.Stats().AllocatedObjects; after >= held {
		t.Fatalf("releasing the pin reclaimed nothing: %d -> %d objects", held, after)
	}
	if got := scanAll(t, s.Scan, nil, nil); !slices.Equal(got, modelRows(model, nil, nil)) {
		t.Fatal("live scan disagrees with the model after the pin released")
	}
	checkStoreIndex(t, s)
}

// TestIndexVolatileAcrossCrash: the index is DRAM only. After a crash
// and recovery the store opens un-indexed, and its first scan rebuilds
// every shard's index from the recovered chains.
func TestIndexVolatileAcrossCrash(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	opts := variant.Options{PoolSize: 32 << 20}
	env, err := variant.New(variant.SPP, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.EnableTracking(nil)
	model := make(map[string]string)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("d%04d", i%200)
		model[k] = fmt.Sprintf("v%d", i)
		if err := s.Put([]byte(k), []byte(model[k])); err != nil {
			t.Fatal(err)
		}
		if i == 150 { // activate mid-load: later puts go through the index
			if err := s.Scan(nil, nil, func(_, _ []byte) bool { return false }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := env.Dev.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := reopenStore(variant.SPP, env.Dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.indexed.Load() || s2.shards[0].root.Load().index != nil {
		t.Fatal("reopened store claims an index before any scan")
	}
	builds := metIndexBuilds.Load()
	if got := scanAll(t, s2.Scan, nil, nil); !slices.Equal(got, modelRows(model, nil, nil)) {
		t.Fatalf("first scan after recovery: %d rows, model %d", len(got), len(model))
	}
	if got := metIndexBuilds.Load() - builds; got != uint64(len(s2.shards)) {
		t.Errorf("first scan built %d shard indexes, want %d", got, len(s2.shards))
	}
	checkStoreIndex(t, s2)
}

// TestScanFaultVerdictsMatchLocked extends the differential safety
// test to scans: with an entry's stored value length inflated past its
// allocation, the index path, the snapshot walk and the locked walk of
// the persistent bucket heads, all over the same store, must reach the
// same verdict — and where the variant stays silent, the same rows, the
// victim's over-read to the same length.
func TestScanFaultVerdictsMatchLocked(t *testing.T) {
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			s, env := newStore(t, kind)
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("f%02d", i)
				if err := s.Put([]byte(k), []byte("0123456789abcdef")); err != nil {
					t.Fatal(err)
				}
			}
			sn := s.Snapshot() // pinned before activation: its roots stay un-indexed
			defer sn.Release()
			if err := s.Scan(nil, nil, func(_, _ []byte) bool { return false }); err != nil {
				t.Fatal(err)
			}
			victim := []byte("f07")
			c := newCtx(s.rt)
			sh := s.shardFor(hashKey(victim))
			root, err := s.loadRoot(c, sh)
			if err != nil {
				t.Fatal(err)
			}
			_, entry, _ := s.findChain(c, sh, root, s.bucketOf(hashKey(victim), root.nbuckets), victim)
			if entry.IsNull() {
				t.Fatal("victim entry not found")
			}
			env.Dev.Data()[entry.Off+enVLen] += 64

			type outcome struct {
				rows []string
				err  error
			}
			run := func(scan func(lo, hi []byte, fn func(k, v []byte) bool) error) outcome {
				var o outcome
				o.err = scan(nil, nil, func(k, v []byte) bool {
					o.rows = append(o.rows, fmt.Sprintf("%s=%s+%d", k, v[:16], len(v)-16))
					return true
				})
				return o
			}
			locked := run(s.lockedScan)
			for name, got := range map[string]outcome{"index": run(s.Scan), "snapshot-walk": run(sn.Scan)} {
				if (locked.err == nil) != (got.err == nil) ||
					hooks.IsSafetyTrap(locked.err) != hooks.IsSafetyTrap(got.err) {
					t.Fatalf("%s: verdicts diverge: locked err=%v, %s err=%v", name, locked.err, name, got.err)
				}
				if locked.err == nil && !slices.Equal(locked.rows, got.rows) {
					t.Fatalf("%s: silent results diverge from the locked scan", name)
				}
			}
			t.Logf("%s: trap=%v", kind, hooks.IsSafetyTrap(locked.err))
		})
	}
}

// TestIndexAddsNoHookChecks: index maintenance reads nothing from PM
// that the write path did not already load, so a store with an active
// index runs exactly as many checked accesses per mutation as one
// without, and a store that never scanned carries no index at all.
func TestIndexAddsNoHookChecks(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	hookSeries := []string{
		"spp_hook_checkbound_total", "spp_hook_checkbound_pm_total",
		"spp_hook_updatetag_total", "spp_hook_memintr_total",
	}
	workload := func(activate bool) telemetry.Snapshot {
		env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(env.RT, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if activate {
			if err := s.Scan(nil, nil, func(_, _ []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		before := telemetry.Default.Snapshot()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 600; i++ { // inserts, overwrites, deletes, rehashes
			k := []byte(fmt.Sprintf("h%03d", rng.Intn(250)))
			var err error
			if rng.Intn(5) == 0 {
				_, err = s.Delete(k)
			} else {
				err = s.Put(k, []byte(fmt.Sprintf("value-%d", i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		d := telemetry.Default.Snapshot().Delta(before)
		if got := s.shards[0].root.Load().index != nil; got != activate {
			t.Fatalf("root indexed = %v on a store with activate = %v", got, activate)
		}
		if activate {
			checkStoreIndex(t, s)
		}
		return d
	}
	plain, indexed := workload(false), workload(true)
	if plain["spp_hook_checkbound_total"] == 0 {
		t.Error("the workload ran no bounds checks")
	}
	for _, name := range hookSeries {
		if plain[name] != indexed[name] {
			t.Errorf("%s: %d without an index, %d with one", name, plain[name], indexed[name])
		}
	}
}

// TestScanTelemetry moves each spp_kv_* series: a walk examines every
// stored key, an index scan one cursor position per shard plus the
// rows it returns.
func TestScanTelemetry(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const shards, keys = 4, 200
	s, err := Open(env.RT, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(fmt.Sprintf("m%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	type series struct{ scans, examined, returned, builds uint64 }
	read := func() series {
		return series{metScans.Load(), metScanExamined.Load(), metScanReturned.Load(), metIndexBuilds.Load()}
	}
	lo, hi := []byte("m0050"), []byte("m0060")
	scan := func(sc func(lo, hi []byte, fn func(k, v []byte) bool) error) series {
		t.Helper()
		before := read()
		if n := len(scanAll(t, sc, lo, hi)); n != 10 {
			t.Fatalf("scan returned %d rows, want 10", n)
		}
		after := read()
		return series{after.scans - before.scans, after.examined - before.examined,
			after.returned - before.returned, after.builds - before.builds}
	}
	old := s.Snapshot() // pinned un-indexed: walks, and activates for later
	defer old.Release()
	if got, want := scan(old.Scan), (series{1, keys, 10, shards}); got != want {
		t.Errorf("walk scan moved %+v, want %+v", got, want)
	}
	got := scan(s.Scan)
	if got.scans != 1 || got.returned != 10 || got.builds != 0 {
		t.Errorf("index scan moved %+v, want 1 scan, 10 rows, 0 builds", got)
	}
	if got.examined < 10 || got.examined > 10+shards {
		t.Errorf("index scan examined %d keys for 10 rows over %d shards", got.examined, shards)
	}
	var sb bytes.Buffer
	telemetry.Default.WriteProm(&sb)
	for _, name := range []string{"spp_kv_scans_total", "spp_kv_scan_rows_examined_total",
		"spp_kv_scan_rows_returned_total", "spp_kv_index_builds_total"} {
		if !bytes.Contains(sb.Bytes(), []byte("# HELP "+name+" ")) {
			t.Errorf("%s has no help text in the exposition", name)
		}
	}
}
