package indices

import (
	"math/rand"
	"testing"

	"repro/internal/hooks"
	"repro/internal/telemetry"

	"repro/internal/pmemobj"
	"repro/internal/variant"
)

func newRT(t *testing.T, kind variant.Kind) *variant.Env {
	t.Helper()
	env, err := variant.New(kind, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewRejectsUnknownKind(t *testing.T) {
	env := newRT(t, variant.PMDK)
	if _, err := New("splaytree", env.RT); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestBasicInsertGetRemove(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind, func(t *testing.T) {
			env := newRT(t, variant.SPP)
			m, err := New(kind, env.RT)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != kind {
				t.Errorf("Name = %q", m.Name())
			}
			for k := uint64(1); k <= 100; k++ {
				if err := m.Insert(k, k*10); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			if n, err := m.Count(); err != nil || n != 100 {
				t.Errorf("Count = %d, %v", n, err)
			}
			for k := uint64(1); k <= 100; k++ {
				v, ok, err := m.Get(k)
				if err != nil || !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v, %v", k, v, ok, err)
				}
			}
			if _, ok, _ := m.Get(1000); ok {
				t.Error("Get(absent) found")
			}
			// Update in place.
			if err := m.Insert(50, 999); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := m.Get(50); v != 999 {
				t.Errorf("updated value = %d", v)
			}
			if n, _ := m.Count(); n != 100 {
				t.Errorf("Count after update = %d", n)
			}
			// Remove half.
			for k := uint64(1); k <= 50; k++ {
				ok, err := m.Remove(k)
				if err != nil || !ok {
					t.Fatalf("Remove(%d) = %v, %v", k, ok, err)
				}
			}
			if ok, _ := m.Remove(25); ok {
				t.Error("double remove succeeded")
			}
			if n, _ := m.Count(); n != 50 {
				t.Errorf("Count after removes = %d", n)
			}
			for k := uint64(1); k <= 100; k++ {
				_, ok, err := m.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (k > 50) {
					t.Errorf("Get(%d) present=%v", k, ok)
				}
			}
		})
	}
}

// TestOracleRandomOps runs a random operation mix against a Go map
// oracle for every index kind and every variant.
func TestOracleRandomOps(t *testing.T) {
	for _, vk := range []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM, variant.Memcheck} {
		for _, kind := range Kinds {
			t.Run(string(vk)+"/"+kind, func(t *testing.T) {
				env := newRT(t, vk)
				m, err := New(kind, env.RT)
				if err != nil {
					t.Fatal(err)
				}
				oracle := make(map[uint64]uint64)
				rng := rand.New(rand.NewSource(7))
				const keySpace = 300
				for step := 0; step < 1500; step++ {
					key := uint64(rng.Intn(keySpace)) + 1
					switch rng.Intn(3) {
					case 0:
						val := rng.Uint64()
						if err := m.Insert(key, val); err != nil {
							t.Fatalf("step %d Insert: %v", step, err)
						}
						oracle[key] = val
					case 1:
						got, ok, err := m.Get(key)
						if err != nil {
							t.Fatalf("step %d Get: %v", step, err)
						}
						want, wantOk := oracle[key]
						if ok != wantOk || (ok && got != want) {
							t.Fatalf("step %d Get(%d) = %d,%v want %d,%v", step, key, got, ok, want, wantOk)
						}
					case 2:
						ok, err := m.Remove(key)
						if err != nil {
							t.Fatalf("step %d Remove: %v", step, err)
						}
						_, wantOk := oracle[key]
						if ok != wantOk {
							t.Fatalf("step %d Remove(%d) = %v want %v", step, key, ok, wantOk)
						}
						delete(oracle, key)
					}
				}
				if n, err := m.Count(); err != nil || n != uint64(len(oracle)) {
					t.Errorf("final Count = %d, %v; oracle %d", n, err, len(oracle))
				}
				for k, want := range oracle {
					got, ok, err := m.Get(k)
					if err != nil || !ok || got != want {
						t.Errorf("final Get(%d) = %d,%v,%v want %d", k, got, ok, err, want)
					}
				}
			})
		}
	}
}

// TestPersistenceAcrossReopen checks that indices are found and intact
// after a simulated restart, including tagged-pointer reconstruction
// under SPP (design goal #4).
func TestPersistenceAcrossReopen(t *testing.T) {
	for _, vk := range []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM} {
		for _, kind := range Kinds {
			t.Run(string(vk)+"/"+kind, func(t *testing.T) {
				env := newRT(t, vk)
				m, err := New(kind, env.RT)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(1); k <= 200; k++ {
					if err := m.Insert(k, k^0xabcd); err != nil {
						t.Fatal(err)
					}
				}
				if err := env.Reopen(); err != nil {
					t.Fatal(err)
				}
				m2, err := New(kind, env.RT)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := m2.Count(); err != nil || n != 200 {
					t.Fatalf("Count after reopen = %d, %v", n, err)
				}
				for k := uint64(1); k <= 200; k++ {
					v, ok, err := m2.Get(k)
					if err != nil || !ok || v != k^0xabcd {
						t.Fatalf("Get(%d) after reopen = %d,%v,%v", k, v, ok, err)
					}
				}
				if _, err := m2.Remove(10); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCrashDuringInsertLeavesConsistentIndex injects a power loss
// mid-transaction and checks the index recovers to the pre-operation
// state.
func TestCrashDuringInsertLeavesConsistentIndex(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind, func(t *testing.T) {
			env := newRT(t, variant.SPP)
			m, err := New(kind, env.RT)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 50; k++ {
				if err := m.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			// Begin a transaction that dirties the index and crash by
			// reopening without commit: every index op is internally
			// transactional, so instead simulate the crash window by
			// snapshotting state mid-op via the device crash hook.
			dev := env.Dev
			dev.EnableTracking(nil)
			_ = m.Insert(51, 51) // fully persisted op: survives
			if err := dev.Crash(); err != nil {
				t.Fatal(err)
			}
			dev.DisableTracking()
			if err := env.Reopen(); err != nil {
				t.Fatal(err)
			}
			m2, err := New(kind, env.RT)
			if err != nil {
				t.Fatal(err)
			}
			// Whatever happened to key 51, keys 1..50 must be intact
			// and the structure walkable.
			for k := uint64(1); k <= 50; k++ {
				v, ok, err := m2.Get(k)
				if err != nil || !ok || v != k {
					t.Fatalf("Get(%d) after crash = %d,%v,%v", k, v, ok, err)
				}
			}
		})
	}
}

// TestRbtreeInvariants validates the red-black properties after a
// random workload: root black, no red-red edges, equal black heights.
func TestRbtreeInvariants(t *testing.T) {
	env := newRT(t, variant.SPP)
	m, err := New("rbtree", env.RT)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := m.(*rbtree)
	if !ok {
		t.Fatal("not an rbtree")
	}
	rng := rand.New(rand.NewSource(3))
	live := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(500)) + 1
		if rng.Intn(3) == 0 {
			if _, err := m.Remove(k); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else {
			if err := m.Insert(k, k); err != nil {
				t.Fatal(err)
			}
			live[k] = true
		}
		if i%200 == 0 {
			checkRB(t, tr)
		}
	}
	checkRB(t, tr)
	if n, _ := m.Count(); n != uint64(len(live)) {
		t.Errorf("Count = %d, oracle %d", n, len(live))
	}
}

// TestRbtreeUndoBytes: an operation snapshots each node it writes once.
// The per-operation node list does that itself, so the transaction's
// range dedup has nothing left to absorb — it skips no byte — and the
// totals are the ones the map-keyed list this replaced produced for the
// same operations.
func TestRbtreeUndoBytes(t *testing.T) {
	if !telemetry.On() {
		telemetry.Enable()
		defer telemetry.Disable()
	}
	undo := telemetry.Default.Histogram("spp_tx_undo_bytes", "")
	skipped := telemetry.Default.Counter("spp_tx_dedup_bytes_total", "")
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New("rbtree", env.RT)
	if err != nil {
		t.Fatal(err)
	}
	keys := rand.New(rand.NewSource(5)).Perm(20000)
	before, skippedBefore := undo.Sum(), skipped.Load()
	for _, k := range keys {
		if err := m.Insert(uint64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	inserted := undo.Sum()
	for _, k := range keys[:10000] {
		if _, err := m.Remove(uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	ins, rem := inserted-before, undo.Sum()-inserted
	if ins != 6446272 || rem != 3745472 {
		t.Errorf("undo bytes %d (insert) %d (remove), want 6446272 and 3745472", ins, rem)
	}
	if d := skipped.Load() - skippedBefore; d != 0 {
		t.Errorf("range dedup skipped %d bytes, want 0", d)
	}
}

// checkRB verifies red-black invariants and BST ordering.
func checkRB(t *testing.T, tr *rbtree) {
	t.Helper()
	root := tr.left(tr.root)
	if err := tr.c.Take(); err != nil {
		t.Fatal(err)
	}
	if root.Off != tr.sent.Off && tr.color(root) != rbBlack {
		t.Fatal("root is not black")
	}
	var walk func(n pmemobj.Oid, lo, hi uint64) int
	walk = func(n pmemobj.Oid, lo, hi uint64) int {
		if n.Off == tr.sent.Off {
			return 1
		}
		k := tr.key(n)
		if k <= lo || k >= hi {
			t.Fatalf("BST violation: key %d outside (%d, %d)", k, lo, hi)
		}
		c := tr.color(n)
		l, r := tr.left(n), tr.right(n)
		if c == rbRed {
			if tr.color(l) == rbRed || tr.color(r) == rbRed {
				t.Fatal("red-red edge")
			}
		}
		lb := walk(l, lo, k)
		rb := walk(r, k, hi)
		if lb != rb {
			t.Fatalf("black-height mismatch at key %d: %d vs %d", k, lb, rb)
		}
		if err := tr.c.Take(); err != nil {
			t.Fatal(err)
		}
		if c == rbBlack {
			return lb + 1
		}
		return lb
	}
	walk(root, 0, ^uint64(0))
}

// TestRtreeByteKeys exercises path compression with variable-length
// string keys.
func TestRtreeByteKeys(t *testing.T) {
	env := newRT(t, variant.SPP)
	m, err := New("rtree", env.RT)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.(*rtree)
	keys := []string{
		"", "a", "ab", "abc", "abcd", "abd", "b", "ba",
		"romane", "romanus", "romulus", "rubens", "ruber", "rubicon", "rubicundus",
	}
	for i, k := range keys {
		if err := tr.InsertBytes([]byte(k), uint64(i+1)); err != nil {
			t.Fatalf("InsertBytes(%q): %v", k, err)
		}
	}
	for i, k := range keys {
		v, ok, err := tr.GetBytes([]byte(k))
		if err != nil || !ok || v != uint64(i+1) {
			t.Fatalf("GetBytes(%q) = %d,%v,%v", k, v, ok, err)
		}
	}
	if _, ok, _ := tr.GetBytes([]byte("roman")); ok {
		t.Error("prefix-only key found")
	}
	if _, ok, _ := tr.GetBytes([]byte("rubiconX")); ok {
		t.Error("extension key found")
	}
	// Remove a middle key; its extensions survive.
	if ok, err := tr.RemoveBytes([]byte("ruber")); !ok || err != nil {
		t.Fatalf("RemoveBytes = %v, %v", ok, err)
	}
	if _, ok, _ := tr.GetBytes([]byte("ruber")); ok {
		t.Error("removed key still present")
	}
	if v, ok, _ := tr.GetBytes([]byte("rubens")); !ok || v != 12 {
		t.Errorf("sibling damaged: %d %v", v, ok)
	}
	// Oversized keys rejected.
	if err := tr.InsertBytes(make([]byte, rtMaxPrefix+1), 1); err == nil {
		t.Error("oversized key accepted")
	}
}

// TestSpaceOverheadShape is the qualitative Table III check: rtree
// space blows up under SPP (256 oids/node), the others barely move.
func TestSpaceOverheadShape(t *testing.T) {
	used := func(vk variant.Kind, kind string) uint64 {
		env := newRT(t, vk)
		m, err := New(kind, env.RT)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 500; k++ {
			if err := m.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		return env.Pool.Stats().AllocatedBytes
	}
	for _, kind := range []string{"ctree", "rtree"} {
		pmdk := used(variant.PMDK, kind)
		spp := used(variant.SPP, kind)
		ratio := float64(spp)/float64(pmdk) - 1
		t.Logf("%s: pmdk=%d spp=%d overhead=%.1f%%", kind, pmdk, spp, ratio*100)
		if kind == "rtree" && (ratio < 0.30 || ratio > 0.50) {
			t.Errorf("rtree overhead %.1f%%, expected ~40%%", ratio*100)
		}
		if kind == "ctree" && ratio > 0.05 {
			t.Errorf("ctree overhead %.1f%%, expected ~0%% (size classes absorb the oid growth)", ratio*100)
		}
	}
}

// TestPackedVariantWorksAndCostsNothing exercises every index under the
// future-work packed-oid layout: full functionality with 16-byte oids
// and zero space overhead versus native PMDK.
func TestPackedVariantWorksAndCostsNothing(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind, func(t *testing.T) {
			env := newRT(t, variant.SPPPacked)
			m, err := New(kind, env.RT)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 300; k++ {
				if err := m.Insert(k, k*3); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(1); k <= 300; k++ {
				v, ok, err := m.Get(k)
				if err != nil || !ok || v != k*3 {
					t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
				}
			}
			for k := uint64(1); k <= 150; k++ {
				if ok, err := m.Remove(k); !ok || err != nil {
					t.Fatalf("Remove(%d) = %v,%v", k, ok, err)
				}
			}
			packed := env.Pool.Stats().AllocatedBytes

			envP := newRT(t, variant.PMDK)
			mp, err := New(kind, envP.RT)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 300; k++ {
				if err := mp.Insert(k, k*3); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(1); k <= 150; k++ {
				if _, err := mp.Remove(k); err != nil {
					t.Fatal(err)
				}
			}
			if pmdk := envP.Pool.Stats().AllocatedBytes; packed != pmdk {
				t.Errorf("packed usage %d != pmdk %d (should be identical)", packed, pmdk)
			}
			// Bounds still enforced: over-read of an index node traps.
			oid, err := env.RT.Alloc(32)
			if err != nil {
				t.Fatal(err)
			}
			p := env.RT.Direct(oid)
			if _, err := hooks.LoadU64(env.RT, env.RT.Gep(p, 32)); !hooks.IsSafetyTrap(err) {
				t.Errorf("packed variant lost protection: %v", err)
			}
		})
	}
}

// TestForEachVisitsEverything: every index's walker yields exactly the
// oracle's pairs; the rbtree's arrives sorted.
func TestForEachVisitsEverything(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind, func(t *testing.T) {
			env := newRT(t, variant.SPP)
			m, err := New(kind, env.RT)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(1000)) + 1
				v := rng.Uint64()
				if err := m.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
			w, ok := m.(Walker)
			if !ok {
				t.Fatalf("%s does not implement Walker", kind)
			}
			got := make(map[uint64]uint64)
			var prev uint64
			ordered := true
			if err := w.ForEach(func(k, v uint64) bool {
				if k <= prev && len(got) > 0 {
					ordered = false
				}
				prev = k
				got[k] = v
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("visited %d pairs, oracle has %d", len(got), len(oracle))
			}
			for k, v := range oracle {
				if got[k] != v {
					t.Errorf("key %d = %d, want %d", k, got[k], v)
				}
			}
			if kind == "rbtree" && !ordered {
				t.Error("rbtree ForEach not in key order")
			}
			// Early termination stops the walk.
			count := 0
			if err := w.ForEach(func(k, v uint64) bool {
				count++
				return count < 10
			}); err != nil {
				t.Fatal(err)
			}
			if count != 10 {
				t.Errorf("early-stop visited %d", count)
			}
		})
	}
}

func TestRbtreeOrderedQueries(t *testing.T) {
	env := newRT(t, variant.SPP)
	m, err := New("rbtree", env.RT)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.(*rbtree)
	// Empty tree.
	if _, _, ok, err := tr.Min(); ok || err != nil {
		t.Errorf("Min on empty = %v, %v", ok, err)
	}
	if _, _, ok, err := tr.Max(); ok || err != nil {
		t.Errorf("Max on empty = %v, %v", ok, err)
	}
	for _, k := range []uint64{50, 10, 90, 30, 70, 20, 80} {
		if err := m.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	if k, v, ok, err := tr.Min(); !ok || err != nil || k != 10 || v != 20 {
		t.Errorf("Min = %d,%d,%v,%v", k, v, ok, err)
	}
	if k, v, ok, err := tr.Max(); !ok || err != nil || k != 90 || v != 180 {
		t.Errorf("Max = %d,%d,%v,%v", k, v, ok, err)
	}
	var keys []uint64
	if err := tr.AscendRange(20, 80, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{20, 30, 50, 70, 80}
	if len(keys) != len(want) {
		t.Fatalf("AscendRange = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("AscendRange = %v, want %v", keys, want)
		}
	}
	// Early termination.
	n := 0
	if err := tr.AscendRange(0, ^uint64(0), func(k, v uint64) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// TestRtreeQuickByteKeys: random variable-length byte keys against a
// map oracle, exercising path compression splits and prunes.
func TestRtreeQuickByteKeys(t *testing.T) {
	env := newRT(t, variant.SPP)
	m, err := New("rtree", env.RT)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.(*rtree)
	oracle := make(map[string]uint64)
	rng := rand.New(rand.NewSource(13))
	randKey := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4)) // small alphabet: deep sharing
		}
		return string(b)
	}
	for step := 0; step < 3000; step++ {
		k := randKey()
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			if err := tr.InsertBytes([]byte(k), v); err != nil {
				t.Fatalf("step %d InsertBytes(%q): %v", step, k, err)
			}
			oracle[k] = v
		case 2:
			ok, err := tr.RemoveBytes([]byte(k))
			if err != nil {
				t.Fatalf("step %d RemoveBytes: %v", step, err)
			}
			if _, want := oracle[k]; ok != want {
				t.Fatalf("step %d RemoveBytes(%q) = %v want %v", step, k, ok, want)
			}
			delete(oracle, k)
		}
	}
	if n, _ := m.Count(); n != uint64(len(oracle)) {
		t.Fatalf("Count = %d, oracle %d", n, len(oracle))
	}
	for k, v := range oracle {
		got, ok, err := tr.GetBytes([]byte(k))
		if err != nil || !ok || got != v {
			t.Fatalf("GetBytes(%q) = %d,%v,%v want %d", k, got, ok, err, v)
		}
	}
}
