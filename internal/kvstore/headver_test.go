package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmemobj"
	"repro/internal/variant"
)

// versionChainLen is the number of head versions bucket b still links,
// newest first, whichever root they belong to.
func versionChainLen(t *headTable, b uint64) int {
	n := 0
	for v := t.slots[b].Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// TestHeadVersionsUnderSnapshot: a snapshot held across overwrites and
// a delete+reinsert of keys that share one bucket — and, in the second
// run, across a rehash of the shard — keeps reading its original values
// and count: each root reads the head version of its own time. While it
// is held the bucket's version chain grows by one per write; once it is
// released the next write to the bucket cuts the chain back to two.
func TestHeadVersionsUnderSnapshot(t *testing.T) {
	for _, rehash := range []bool{false, true} {
		t.Run(fmt.Sprintf("rehash=%v", rehash), func(t *testing.T) {
			env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(env.RT, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			keys := sameBucketKeys(s, 3)
			val := func(k []byte, gen int) []byte { return []byte(fmt.Sprintf("%s=g%d", k, gen)) }
			put := func(k []byte, gen int) {
				t.Helper()
				if err := s.Put(k, val(k, gen)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				put(k, 0)
			}
			sn := s.Snapshot()
			table := sn.roots[0].table
			writes := 0
			for gen := 1; gen <= 3; gen++ {
				for _, k := range keys {
					put(k, gen)
					writes++
				}
			}
			if ok, err := s.Delete(keys[1]); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			put(keys[1], 4)
			writes += 2
			// Three inserts made the chain before the pin; the next write
			// after it cut those, and every write since added one.
			if got := versionChainLen(table, 0); got != writes+1 {
				t.Errorf("under the pin the bucket links %d versions, want %d (one per write, plus the pinned one)", got, writes+1)
			}
			if rehash {
				for i := 0; s.shards[0].root.Load().nbuckets == initialBuckets; i++ {
					put([]byte(fmt.Sprintf("filler-%04d", i)), 0)
				}
			}
			for _, k := range keys {
				got, ok, err := sn.Get(k)
				if err != nil || !ok || !bytes.Equal(got, val(k, 0)) {
					t.Errorf("pinned Get(%s) = %q, %v, %v; want %q", k, got, ok, err, val(k, 0))
				}
			}
			if n, err := sn.Count(); err != nil || n != uint64(len(keys)) {
				t.Errorf("pinned Count = %d, %v; want %d", n, err, len(keys))
			}
			if err := sn.Release(); err != nil {
				t.Fatal(err)
			}
			put(keys[0], 5)
			root := s.shards[0].root.Load()
			b := s.bucketOf(hashKey(keys[0]), root.nbuckets)
			if got := versionChainLen(root.table, b); got > 2 {
				t.Errorf("after the release and one write the bucket links %d versions, want <= 2", got)
			}
			for i, k := range keys {
				want := val(k, 3)
				switch i {
				case 0:
					want = val(k, 5)
				case 1:
					want = val(k, 4)
				}
				if got, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(got, want) {
					t.Errorf("Get(%s) = %q, %v, %v; want %q", k, got, ok, err, want)
				}
			}
		})
	}
}

// TestHeadVersionNeverAheadOfRoot: under a writer storm every reader
// that pins, loads a root and looks a bucket up gets a version no newer
// than the root, and the chain behind it holds the key's value intact —
// a version installed for a root not yet stored is invisible. Run under
// -race by `make race`.
func TestHeadVersionNeverAheadOfRoot(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	const keySpace = 128
	key := func(i int) []byte { return []byte(fmt.Sprintf("hv%03d", i)) }
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("hv%03d=g%d", i, gen)) }
	for i := 0; i < keySpace; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for gen := 1; !stop.Load(); gen++ {
				i := rng.Intn(keySpace)
				var err error
				if rng.Intn(6) == 0 {
					_, err = s.Delete(key(i))
				} else {
					err = s.Put(key(i), val(i, gen))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var looked atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			c := s.proto
			for !stop.Load() {
				i := rng.Intn(keySpace)
				k := key(i)
				h := hashKey(k)
				e := s.pin()
				root := s.shardFor(h).root.Load()
				v := root.version(s.bucketOf(h, root.nbuckets))
				if v != nil && v.ver > root.ver {
					t.Errorf("root at version %d read head version %d", root.ver, v.ver)
				}
				if v != nil {
					got, ok := s.appendValue(&c, nil, v.oid, k)
					if err := c.Take(); err != nil {
						t.Error(err)
					} else if ok && !bytes.HasPrefix(got, append(k, '=')) {
						t.Errorf("key %s reads %q", k, got)
					}
				}
				s.unpin(e)
				looked.Add(1)
			}
		}(r)
	}
	for looked.Load() < 20000 && !t.Failed() {
		sn := s.Snapshot() // pins come and go: chains are cut under the readers
		for i := range sn.roots {
			if sn.roots[i].version(0) != nil && sn.roots[i].version(0).ver > sn.roots[i].ver {
				t.Errorf("snapshot root at version %d sees a newer head", sn.roots[i].ver)
			}
		}
		if err := sn.Release(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestHeadEpochStampedAfterRootStore pins the ordering rule of publish:
// a head version's epoch is read after the root that makes it current
// is stored. The schedule is the one an earlier stamp gets wrong. Shard
// A's writer has installed its version but not stored its root; shard B
// publishes, advancing the epoch; a reader pins the advanced epoch and
// still loads A's old root; A's writer stores. The reader's pin is
// newer than any epoch A's writer could have read before its store, so
// a version stamped that early looks older than every pin and the next
// write to the bucket cuts away the version the reader is on.
func TestHeadEpochStampedAfterRootStore(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var otherShardKey []byte
	for i := 0; otherShardKey == nil; i++ {
		if k := []byte(fmt.Sprintf("b%d", i)); s.shardFor(hashKey(k)) == &s.shards[1] {
			otherShardKey = k
		}
	}
	// Shard A is driven by hand with made-up entries: only the heads
	// are read.
	shA := &s.shards[0]
	const b = 5
	h := func(i uint64) pmemobj.Oid { return pmemobj.Oid{Pool: 1, Off: 4096 * i, Size: 64} }
	root1, hv1 := shA.root.Load().withHead(b, h(1), 1, s.minPin.Load())
	s.publish(shA, root1, hv1, nil)

	root2, hv2 := root1.withHead(b, h(2), 0, s.minPin.Load()) // installed, not stored
	if err := s.Put(otherShardKey, []byte("v")); err != nil { // shard B advances the epoch
		t.Fatal(err)
	}
	sn := s.Snapshot() // pins the advanced epoch, holds A's older root
	defer sn.Release()
	if got := sn.roots[0].head(b); got != h(1) {
		t.Fatalf("the reader's root reads head %+v before the store, want %+v", got, h(1))
	}
	s.publish(shA, root2, hv2, nil)
	if hv2.epoch < sn.epoch {
		t.Errorf("version stamped with epoch %d, below the pin %d of a reader that holds the older root", hv2.epoch, sn.epoch)
	}

	root3, hv3 := root2.withHead(b, h(3), 0, s.minPin.Load())
	s.publish(shA, root3, hv3, nil)
	if got := sn.roots[0].head(b); got != h(1) {
		t.Errorf("after the next write to the bucket the pinned root reads head %+v, want %+v: its version was cut away", got, h(1))
	}
	if got := shA.root.Load().head(b); got != h(3) {
		t.Errorf("current head = %+v, want %+v", got, h(3))
	}
	// Once the reader is gone the rule lets go: the next write cuts.
	if err := sn.Release(); err != nil {
		t.Fatal(err)
	}
	root4, hv4 := root3.withHead(b, h(4), 0, s.minPin.Load())
	s.publish(shA, root4, hv4, nil)
	if got := versionChainLen(root4.table, b); got != 2 {
		t.Errorf("with no pin the bucket links %d versions after a write, want 2", got)
	}
}
