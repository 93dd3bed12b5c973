package spp

import (
	"errors"
	"fmt"
	"testing"
)

func open(t *testing.T, prot Protection) *Pool {
	t.Helper()
	p, err := Open(Options{PoolSize: 16 << 20, Protection: prot})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuickstartFlow(t *testing.T) {
	pool := open(t, ProtectionSPP)
	if pool.Protection() != ProtectionSPP {
		t.Errorf("Protection = %q", pool.Protection())
	}
	if pool.TagBits() != DefaultTagBits {
		t.Errorf("TagBits = %d", pool.TagBits())
	}
	oid, err := pool.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	ptr := pool.Direct(oid)
	if err := pool.StoreU64(ptr, 42); err != nil {
		t.Fatal(err)
	}
	v, err := pool.LoadU64(ptr)
	if err != nil || v != 42 {
		t.Fatalf("LoadU64 = %d, %v", v, err)
	}
	if err := pool.Persist(ptr, 8); err != nil {
		t.Fatal(err)
	}
	// The headline behaviour: one past the end faults.
	bad := pool.Gep(ptr, 64)
	if err := pool.StoreU64(bad, 1); !errors.Is(err, ErrDetected) {
		t.Errorf("overflow error = %v, want ErrDetected", err)
	}
	if err := pool.Free(oid); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without PoolSize succeeded")
	}
	if _, err := Open(Options{PoolSize: 16 << 20, Protection: "bogus"}); err == nil {
		t.Error("Open with bogus protection succeeded")
	}
	p, err := Open(Options{PoolSize: 16 << 20}) // default protection
	if err != nil {
		t.Fatal(err)
	}
	if p.Protection() != ProtectionSPP {
		t.Errorf("default protection = %q", p.Protection())
	}
}

func TestAllProtections(t *testing.T) {
	for _, prot := range []Protection{ProtectionNone, ProtectionSPP, ProtectionSafePM, ProtectionMemcheck} {
		t.Run(string(prot), func(t *testing.T) {
			pool := open(t, prot)
			oid, err := pool.Alloc(128)
			if err != nil {
				t.Fatal(err)
			}
			ptr := pool.Direct(oid)
			if err := pool.StoreBytes(ptr, []byte("persistent data")); err != nil {
				t.Fatal(err)
			}
			got, err := pool.LoadBytes(ptr, 15)
			if err != nil || string(got) != "persistent data" {
				t.Fatalf("LoadBytes = %q, %v", got, err)
			}
			if prot != ProtectionNone {
				if err := pool.Memset(ptr, 0, 129); !errors.Is(err, ErrDetected) {
					t.Errorf("memset overflow = %v", err)
				}
			}
		})
	}
}

func TestTransactionsAndReopen(t *testing.T) {
	pool := open(t, ProtectionSPP)
	root, err := pool.Root(64)
	if err != nil {
		t.Fatal(err)
	}
	tx := pool.Begin()
	oid, err := pool.TxAlloc(tx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(root.Off, 24); err != nil {
		t.Fatal(err)
	}
	pool.WriteOid(root.Off, oid)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ptr := pool.Direct(pool.ReadOid(root.Off))
	if err := pool.StoreU64(ptr, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if err := pool.Persist(ptr, 8); err != nil {
		t.Fatal(err)
	}

	if err := pool.Reopen(); err != nil {
		t.Fatal(err)
	}
	got := pool.ReadOid(root.Off)
	if got.Size != 256 {
		t.Errorf("oid.Size after reopen = %d", got.Size)
	}
	ptr2 := pool.Direct(got)
	if ptr != ptr2 {
		t.Errorf("tagged pointer changed across reopen: %#x vs %#x", ptr, ptr2)
	}
	v, err := pool.LoadU64(ptr2)
	if err != nil || v != 0xfeed {
		t.Errorf("after reopen = %#x, %v", v, err)
	}
	if err := pool.StoreU8(pool.Gep(ptr2, 256), 1); !errors.Is(err, ErrDetected) {
		t.Errorf("bounds not enforced after reopen: %v", err)
	}
}

func TestStringWrappers(t *testing.T) {
	pool := open(t, ProtectionSPP)
	src, _ := pool.Alloc(32)
	dst, _ := pool.Alloc(8)
	ps, pd := pool.Direct(src), pool.Direct(dst)
	if err := pool.StoreBytes(ps, append([]byte("hello"), 0)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Strcpy(pd, ps); err != nil {
		t.Fatal(err)
	}
	n, err := pool.Strlen(pd)
	if err != nil || n != 5 {
		t.Errorf("Strlen = %d, %v", n, err)
	}
	if err := pool.StoreBytes(ps, append([]byte("too long for dst"), 0)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Strcpy(pd, ps); !errors.Is(err, ErrDetected) {
		t.Errorf("strcpy overflow = %v", err)
	}
}

func TestExternalMasking(t *testing.T) {
	pool := open(t, ProtectionSPP)
	oid, _ := pool.Alloc(64)
	ptr := pool.Direct(oid)
	masked := pool.External(ptr)
	if err := pool.AddressSpace().StoreU64(masked, 7); err != nil {
		t.Fatalf("raw store through masked pointer: %v", err)
	}
	if v, _ := pool.LoadU64(ptr); v != 7 {
		t.Error("external store invisible")
	}
}

func TestMaxObjectSize(t *testing.T) {
	pool, err := Open(Options{PoolSize: 16 << 20, TagBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if pool.MaxObjectSize() != 1024 {
		t.Errorf("MaxObjectSize = %d", pool.MaxObjectSize())
	}
	if _, err := pool.Alloc(1025); err == nil {
		t.Error("oversized alloc accepted")
	}
}

func TestAllocAtFreeAt(t *testing.T) {
	pool := open(t, ProtectionSPP)
	root, _ := pool.Root(64)
	if err := pool.AllocAt(root.Off, 96); err != nil {
		t.Fatal(err)
	}
	oid := pool.ReadOid(root.Off)
	if oid.Size != 96 {
		t.Errorf("published oid = %v", oid)
	}
	before := pool.Stats().AllocatedObjects
	if err := pool.FreeAt(root.Off); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().AllocatedObjects; got != before-1 {
		t.Errorf("objects = %d, want %d", got, before-1)
	}
	// Realloc via facade.
	oid2, err := pool.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	oid3, err := pool.Realloc(oid2, 4096)
	if err != nil || oid3.Size != 4096 {
		t.Fatalf("Realloc = %v, %v", oid3, err)
	}
	tx := pool.Begin()
	if err := pool.TxFree(tx, oid3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFilePersistence(t *testing.T) {
	path := t.TempDir() + "/pool.img"
	opts := Options{PoolSize: 16 << 20, Protection: ProtectionSPP}
	pool, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.Root(24)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := pool.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	ptr := pool.Direct(oid)
	if err := pool.StoreU64(ptr, 0xfeedbeef); err != nil {
		t.Fatal(err)
	}
	if err := pool.Persist(ptr, 8); err != nil {
		t.Fatal(err)
	}
	pool.WriteOid(root.Off, oid)
	if err := pool.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// A "new process": open the file, recover, verify tags and data.
	pool2, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	root2, err := pool2.Root(24)
	if err != nil {
		t.Fatal(err)
	}
	got := pool2.ReadOid(root2.Off)
	if got.Size != 48 {
		t.Fatalf("oid after reload = %v", got)
	}
	p2 := pool2.Direct(got)
	if v, err := pool2.LoadU64(p2); err != nil || v != 0xfeedbeef {
		t.Fatalf("data after reload = %#x, %v", v, err)
	}
	if err := pool2.StoreU8(pool2.Gep(p2, 48), 1); !errors.Is(err, ErrDetected) {
		t.Errorf("bounds not enforced after reload: %v", err)
	}
}

// TestStoreScanRowsAreKept: the engine lends a scan row only until the
// callback returns; the public Store and Snap hand out copies, so rows a
// caller keeps are intact after the scan — indexed (the second scan) or
// not (the first, and the pre-activation snapshot).
func TestStoreScanRowsAreKept(t *testing.T) {
	pool, err := Open(Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pool.OpenStore()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := store.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("value-%d", i*i))); err != nil {
			t.Fatal(err)
		}
	}
	early := store.Snapshot()
	defer early.Release()
	for name, scan := range map[string]func(lo, hi []byte, fn func(k, v []byte) bool) error{
		"first scan": store.Scan, "indexed scan": store.Scan, "early snapshot": early.Scan,
	} {
		var keys, vals [][]byte
		if err := scan(nil, nil, func(k, v []byte) bool {
			keys, vals = append(keys, k), append(vals, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(keys) != n {
			t.Fatalf("%s: %d rows, want %d", name, len(keys), n)
		}
		for i := range keys {
			if string(keys[i]) != fmt.Sprintf("key-%04d", i) || string(vals[i]) != fmt.Sprintf("value-%d", i*i) {
				t.Fatalf("%s: kept row %d reads %q = %q after the scan returned", name, i, keys[i], vals[i])
			}
		}
	}
}
