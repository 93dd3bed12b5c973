package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/variant"
)

// scanCost preloads the ledger's population — 20 000 sixteen-byte keys,
// 256-byte values — into a store of the given shard count and reports
// what one steady-state 32-row scan costs the Go heap, through
// Store.Scan or through Snap.Scan on one held snapshot.
func scanCost(t *testing.T, shards uint64, held bool) (allocs, bytes float64) {
	t.Helper()
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	const keys, rows = 20000, 32
	value := make([]byte, 256)
	ks := make([][]byte, keys+rows)
	for i := range ks {
		ks[i] = ledgerKey(i)
	}
	for _, k := range ks[:keys] {
		if err := s.Put(k, value); err != nil {
			t.Fatal(err)
		}
	}
	scanFn := s.Scan
	if held {
		if err := s.Scan(nil, ks[1], func(_, _ []byte) bool { return true }); err != nil {
			t.Fatal(err) // the snapshot below must capture indexed roots
		}
		sn := s.Snapshot()
		defer sn.Release()
		scanFn = sn.Scan
	}
	i, got := 0, 0
	count := func(_, _ []byte) bool { got++; return true }
	scan := func() {
		i = (i*31 + 7) % (keys - rows)
		got = 0
		if err := scanFn(ks[i], ks[i+rows], count); err != nil || got != rows {
			t.Fatalf("scan from %d: %d rows, %v", i, got, err)
		}
	}
	// Warm: the index is built and the cursors have met deep seek paths.
	for n := 0; n < 500; n++ {
		scan()
	}
	return heapCost(1000, scan)
}

// TestScanAllocBudget: a steady-state bounded scan allocates nothing —
// not for its rows, which fn borrows, and not for its shards, whose
// bookkeeping rides the workspace — whether the store has 64 shards or
// one.
func TestScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, held := range []bool{false, true} {
		for _, shards := range []uint64{64, 1} {
			t.Run(fmt.Sprintf("heldSnap=%v/shards=%d", held, shards), func(t *testing.T) {
				allocs, bytes := scanCost(t, shards, held)
				t.Logf("%.1f allocs, %.0f B per 32-row scan", allocs, bytes)
				if allocs != 0 {
					t.Errorf("a 32-row scan allocates %.1f times, want 0", allocs)
				}
				if bytes != 0 {
					t.Errorf("a 32-row scan allocates %.0f B, want 0", bytes)
				}
			})
		}
	}
}

// scanInto runs one scan over roots in a workspace the caller holds,
// as Store.Scan (roots nil: capture the current ones into ws) and
// Snap.Scan do between borrow and park, stopping after limit rows.
func scanInto(t *testing.T, s *Store, ws *scanWS, roots []*shardRoot, lo []byte, limit int) {
	t.Helper()
	if roots == nil {
		for i := range s.shards {
			ws.roots[i] = s.shards[i].root.Load()
		}
		roots = ws.roots
	}
	rows := 0
	if err := s.scanRoots(ws, roots, lo, nil, func(_, _ []byte) bool { rows++; return rows < limit }); err != nil {
		t.Fatal(err)
	}
	if rows != limit {
		t.Fatalf("scan returned %d rows, want %d", rows, limit)
	}
}

// wsHolds names what ws still references of a store's versioned state,
// looking at every slot a scan can have written — the part of a slice
// the merge shrank away and the nodes a cursor popped included.
func wsHolds(ws *scanWS) []string {
	var held []string
	for i, r := range ws.roots {
		if r != nil {
			held = append(held, fmt.Sprintf("root of shard %d", i))
		}
	}
	for i, r := range ws.runs[:cap(ws.runs)] {
		if r.items != nil || r.index != nil || r.ix != nil {
			held = append(held, fmt.Sprintf("run %d", i))
		}
	}
	for i := range ws.iters {
		st := ws.iters[i].stack
		for _, n := range st[:cap(st)] {
			if n != nil {
				held = append(held, fmt.Sprintf("node %q on cursor %d", n.key, i))
			}
		}
	}
	return held
}

// TestScanWorkspaceParksEmpty: a parked workspace references no root,
// index, node or row, whether its scan seeked indexes or walked chains
// and although fn cut it short — an idle pool must not pin index
// versions the retire machinery has let go.
func TestScanWorkspaceParksEmpty(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := s.Put(ledgerKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Snapshot() // pinned before any scan: un-indexed roots
	defer old.Release()
	if err := s.activateIndex(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		roots []*shardRoot
	}{{"indexed", nil}, {"walked", old.roots}} {
		name := tc.name
		ws := s.borrowScan()
		scanInto(t, s, ws, tc.roots, ledgerKey(100), 7)
		if len(wsHolds(ws)) == 0 {
			t.Fatalf("%s: the workspace of a scan in flight references nothing; the check below is blind", name)
		}
		s.parkScan(ws)
		if held := wsHolds(ws); len(held) != 0 {
			t.Errorf("%s: a parked workspace still holds %v", name, held)
		}
		if len(ws.runs) != 0 {
			t.Errorf("%s: a parked workspace has %d live runs", name, len(ws.runs))
		}
		for i := range ws.iters {
			if d := len(ws.iters[i].stack); d != 0 {
				t.Errorf("%s: parked cursor %d is %d deep", name, i, d)
			}
		}
	}
}

// TestScanWorkspaceBounded: the row buffer a scan over a 512 KiB value
// grew does not stay with the idle store (wire.RetainCap's rule, as
// TestSessionBuffersBounded holds a connection to it); an ordinary one
// does.
func TestScanWorkspaceBounded(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	big := make([]byte, 512<<10)
	if err := s.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("small"), make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.activateIndex(); err != nil {
		t.Fatal(err)
	}
	ws := s.borrowScan()
	scanInto(t, s, ws, nil, []byte("big"), 1)
	if cap(ws.scratch) < len(big) {
		t.Fatalf("row buffer is %d bytes right after a 512 KiB row", cap(ws.scratch))
	}
	s.parkScan(ws)
	if c := cap(ws.scratch); c > scanRetainCap {
		t.Errorf("a parked workspace keeps a %d-byte row buffer, cap is %d", c, scanRetainCap)
	}
	ws = s.borrowScan()
	scanInto(t, s, ws, nil, []byte("small"), 1)
	s.parkScan(ws)
	if c := cap(ws.scratch); c < 256 || c > scanRetainCap {
		t.Errorf("row buffer after a 256-byte row has capacity %d", c)
	}
}

// TestScanReentrant: fn may read and scan the store it is being called
// from. The nested scan borrows a workspace of its own, so the outer
// pair is intact when it returns, and both see every row. The subtest
// keeps the name it had beside a locked read mode, since removed.
func TestScanReentrant(t *testing.T) {
	t.Run("noMVCC=false", func(t *testing.T) {
		s, _ := newStore(t, variant.SPP)
		const n = 300
		model := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, v := ledgerKey(i), fmt.Sprintf("value-%d-%0*d", i, i%50, 0)
			model[string(k)] = v
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		want := modelRows(model, nil, nil)
		var outer []string
		err := s.Scan(nil, nil, func(k, v []byte) bool {
			kept := string(k) + "=" + string(v)
			// A nested scan that lands on other rows, then a Get.
			lo := ledgerKey((len(outer)*7 + 11) % n)
			inner := scanAll(t, s.Scan, lo, nil)
			if w := modelRows(model, lo, nil); !slices.Equal(inner, w) {
				t.Fatalf("nested scan from %q returned %d rows, want %d", lo, len(inner), len(w))
			}
			if got, ok, err := s.Get(lo); err != nil || !ok || string(got) != model[string(lo)] {
				t.Fatalf("nested Get(%q) = %q, %v, %v", lo, got, ok, err)
			}
			if now := string(k) + "=" + string(v); now != kept {
				t.Fatalf("the outer pair changed under a nested scan: %q, was %q", now, kept)
			}
			outer = append(outer, kept)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(outer, want) {
			t.Fatalf("outer scan returned %d rows, want %d", len(outer), len(want))
		}
	})
}

// TestScanConcurrentModel: eight scanners share the store's workspaces
// with two writers that overwrite, delete and re-insert. Every scan is
// in key order and well formed, sees every key no writer deletes, and
// never sees a key's generation go backwards; once the writers stop a
// scan equals the sequential model of what they wrote. Run it under
// -race.
func TestScanConcurrentModel(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers, scanners = 2, 8
		stable, flicker   = 240, 120 // flicker keys come and go
		rounds            = 6
	)
	stableKey := func(i int) []byte { return []byte(fmt.Sprintf("s%05d", i)) }
	flickerKey := func(i int) []byte { return []byte(fmt.Sprintf("f%05d", i)) }
	val := func(k []byte, gen int) []byte { return []byte(fmt.Sprintf("%s@%06d", k, gen)) }
	for i := 0; i < stable; i++ {
		if err := s.Put(stableKey(i), val(stableKey(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	models := make([]map[string]string, writers)
	var writing sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		m := make(map[string]string)
		models[w] = m
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for gen := 1; gen <= rounds; gen++ {
				for i := w; i < stable; i += writers {
					k := stableKey(i)
					m[string(k)] = string(val(k, gen))
					if err := s.Put(k, val(k, gen)); err != nil {
						t.Error(err)
						return
					}
				}
				for i := w; i < flicker; i += writers {
					k := flickerKey(i)
					if (i+gen)%3 == 0 {
						delete(m, string(k))
						if _, err := s.Delete(k); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					m[string(k)] = string(val(k, gen))
					if err := s.Put(k, val(k, gen)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	var scanning sync.WaitGroup
	for r := 0; r < scanners; r++ {
		scanning.Add(1)
		go func(r int) {
			defer scanning.Done()
			lastGen := make(map[string]string)
			for n := 0; !done.Load() || n < 3; n++ {
				var prev []byte
				seen := 0
				err := s.Scan(nil, nil, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scanner %d: %q after %q", r, k, prev)
					}
					prev = append(prev[:0], k...)
					if !bytes.HasPrefix(v, append(append([]byte(nil), k...), '@')) {
						t.Errorf("scanner %d: key %q carries value %q", r, k, v)
					}
					if was := lastGen[string(k)]; string(v) < was {
						t.Errorf("scanner %d: %q went back from %q to %q", r, k, was, v)
					}
					lastGen[string(k)] = string(v)
					if k[0] == 's' {
						seen++
					}
					return true
				})
				if err != nil {
					t.Errorf("scanner %d: %v", r, err)
					return
				}
				if seen != stable {
					t.Errorf("scanner %d: a scan returned %d of the %d keys nobody deletes", r, seen, stable)
					return
				}
			}
		}(r)
	}
	writing.Wait()
	done.Store(true)
	scanning.Wait()
	if t.Failed() {
		return
	}
	model := make(map[string]string)
	for i := 0; i < stable; i++ {
		model[string(stableKey(i))] = string(val(stableKey(i), 0))
	}
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}
	if got, want := scanAll(t, s.Scan, nil, nil), modelRows(model, nil, nil); !slices.Equal(got, want) {
		t.Fatalf("after the storm the store scans to %d rows, the model holds %d", len(got), len(want))
	}
	checkStoreIndex(t, s)
}
