package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hooks"
	"repro/internal/pmem"
	"repro/internal/pmemcheck"
	"repro/internal/variant"
)

func newStore(t *testing.T, kind variant.Kind) (*Store, *variant.Env) {
	t.Helper()
	env, err := variant.New(kind, variant.Options{PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT)
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

// TestWithShards checks the functional-options constructor: the shard
// count is honored at creation and persisted.
func TestWithShards(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.shards); got != 8 {
		t.Fatalf("WithShards(8): got %d shards", got)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Reopening ignores a different requested count: the persisted
	// count wins, via either constructor.
	s2, err := Open(env.RT, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.shards); got != 8 {
		t.Fatalf("reopen: got %d shards, want persisted 8", got)
	}
	if v, ok, err := s2.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("reopen Get = %q, %v, %v", v, ok, err)
	}
}

func TestPutGetDelete(t *testing.T) {
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			s, _ := newStore(t, kind)
			key := []byte("alpha-key-000001")
			val := make([]byte, 1024)
			for i := range val {
				val[i] = byte(i)
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
			if string(got) != string(val) {
				t.Error("value mismatch")
			}
			if _, ok, _ := s.Get([]byte("absent")); ok {
				t.Error("absent key found")
			}
			// Same-size overwrite reuses the entry.
			val[0] = 0xFF
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			got, _, _ = s.Get(key)
			if got[0] != 0xFF {
				t.Error("overwrite lost")
			}
			// Different-size overwrite reallocates.
			if err := s.Put(key, []byte("short")); err != nil {
				t.Fatal(err)
			}
			got, _, _ = s.Get(key)
			if string(got) != "short" {
				t.Errorf("resized value = %q", got)
			}
			if n, _ := s.Count(); n != 1 {
				t.Errorf("Count = %d", n)
			}
			ok, err = s.Delete(key)
			if err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			if ok, _ := s.Delete(key); ok {
				t.Error("double delete succeeded")
			}
			if n, _ := s.Count(); n != 0 {
				t.Errorf("Count after delete = %d", n)
			}
		})
	}
}

func TestOracleWorkload(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	oracle := make(map[string]string)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d-%d", i, rng.Int())
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			oracle[k] = v
		case 2:
			ok, err := s.Delete([]byte(k))
			if err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, want := oracle[k]; ok != want {
				t.Fatalf("Delete(%s) = %v want %v", k, ok, want)
			}
			delete(oracle, k)
		}
	}
	if n, _ := s.Count(); n != uint64(len(oracle)) {
		t.Errorf("Count = %d, oracle %d", n, len(oracle))
	}
	for k, v := range oracle {
		got, ok, err := s.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Get(%s) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
}

func TestRehashGrowsBuckets(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	// Push well past initialBuckets per shard.
	const n = defaultShards * initialBuckets * 2
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got, _ := s.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 97 {
		if _, ok, err := s.Get([]byte(fmt.Sprintf("k%06d", i))); !ok || err != nil {
			t.Fatalf("Get(%d) after rehash = %v, %v", i, ok, err)
		}
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP} {
		t.Run(string(kind), func(t *testing.T) {
			s, _ := newStore(t, kind)
			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 300; i++ {
						k := []byte(fmt.Sprintf("g%d-k%03d", g, rng.Intn(100)))
						switch rng.Intn(4) {
						case 0, 1:
							if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
								t.Errorf("Put: %v", err)
								return
							}
						case 2:
							if _, _, err := s.Get(k); err != nil {
								t.Errorf("Get: %v", err)
								return
							}
						case 3:
							if _, err := s.Delete(k); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s, env := newStore(t, variant.SPP)
	for i := 0; i < 500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("persist-%03d", i)), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Reopen(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(env.RT)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s2.Count(); n != 500 {
		t.Fatalf("Count after reopen = %d", n)
	}
	for i := 0; i < 500; i++ {
		got, ok, err := s2.Get([]byte(fmt.Sprintf("persist-%03d", i)))
		if err != nil || !ok || string(got) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("Get(%d) after reopen = %q,%v,%v", i, got, ok, err)
		}
	}
}

// TestValueOverflowCaught: a store that lies about its value length
// cannot happen through the API, but an overflowing read through a
// corrupted length is caught by the protection variants. Simulate by
// accessing one past a value's end through the hooks directly.
func TestValueOverflowCaught(t *testing.T) {
	s, env := newStore(t, variant.SPP)
	if err := s.Put([]byte("k"), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Find the entry and read past its allocation.
	c := newCtx(env.RT)
	sh := s.shardFor(hashKey([]byte("k")))
	hp := c.Direct(sh.hdr)
	n := c.Load(hp, shNBuckets)
	buckets := c.LoadOid(hp, shBuckets)
	entry := c.LoadOid(c.Direct(buckets), int64(s.bucketOf(hashKey([]byte("k")), n))*s.oidSize)
	if err := c.Take(); err != nil {
		t.Fatal(err)
	}
	ep := env.RT.Direct(entry)
	_, err := hooks.LoadBytes(env.RT, env.RT.Gep(ep, 0), entry.Size+1)
	if !hooks.IsSafetyTrap(err) {
		t.Errorf("over-read of entry not caught: %v", err)
	}
}

// TestCrashConsistencyUnderPmemcheck records a Put/Delete window and
// verifies, pmreorder-style, that every explored power-loss state
// recovers to a store whose reachable entries are internally
// consistent (§VI-E applied to the KV engine).
func TestCrashConsistencyUnderPmemcheck(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d", i)) }
	for i := 0; i < 20; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	base := make([]byte, env.Dev.Size())
	copy(base, env.Dev.Data())

	tr := pmemcheck.NewTracker()
	env.Dev.EnableTracking(tr)
	for i := 20; i < 40; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	env.Dev.DisableTracking()

	rep := pmemcheck.Analyze(tr.Events())
	if !rep.Clean() {
		t.Fatalf("protocol violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
	states, err := pmemcheck.Explore(base, tr.Events(),
		pmemcheck.ExploreOptions{EveryNthFence: 16, MaxSingles: 2, MaxStates: 250},
		func(img []byte) error {
			dev := pmem.NewPool("kv-crash", uint64(len(img)))
			copy(dev.Data(), img)
			env2, err := variant.Adopt(variant.SPP, dev)
			if err != nil {
				return err
			}
			s2, err := Open(env2.RT)
			if err != nil {
				return err
			}
			count, err := s2.Count()
			if err != nil {
				return err
			}
			var reachable uint64
			for i := 0; i < 40; i++ {
				v, ok, err := s2.Get(key(i))
				if err != nil {
					return fmt.Errorf("get(%d): %w", i, err)
				}
				if ok {
					reachable++
					if string(v) != string(val(i)) {
						return fmt.Errorf("key %d has value %q", i, v)
					}
				}
			}
			if reachable != count {
				return fmt.Errorf("count %d but %d reachable", count, reachable)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("inconsistent crash state: %v", err)
	}
	t.Logf("%d crash states consistent", states)
}
