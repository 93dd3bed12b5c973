package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/variant"
)

var raceEnabled bool

// TestAppendGetAllocs: with room in the caller's buffer a lookup
// allocates nothing — the value's one copy out of PM is the only copy.
// Get is the same call with no buffer and pays for exactly the slice it
// returns. The subtests keep the names they had beside a locked read
// mode, since removed.
func TestAppendGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP} {
		t.Run(string(kind)+"/noMVCC=false", func(t *testing.T) {
			s, _ := newStore(t, kind)
			const n = 512
			key := func(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }
			for i := 0; i < n; i++ {
				if err := s.Put(key(i), bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
					t.Fatal(err)
				}
			}
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = key(i)
			}
			buf := make([]byte, 0, 5+256)
			i := 0
			check := func(out []byte, ok bool, err error) {
				if err != nil || !ok || len(out) != 256 || out[0] != byte(i) {
					t.Fatalf("key %d: %d bytes, %v, %v", i, len(out), ok, err)
				}
				i = (i + 1) % n
			}
			if allocs := testing.AllocsPerRun(2*n, func() {
				out, ok, err := s.AppendGet(buf[:5], keys[i])
				check(out[5:], ok, err)
			}); allocs != 0 {
				t.Errorf("AppendGet into a buffer with room allocates %.0f times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(2*n, func() {
				check(s.Get(keys[i]))
			}); allocs != 1 {
				t.Errorf("Get allocates %.0f times, want 1 (the value)", allocs)
			}
			if _, ok, err := s.AppendGet(buf[:5], []byte("absent")); ok || err != nil {
				t.Errorf("absent key: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestPutCopiesCallerBuffers: a caller — the server, whose request
// fields alias its connection buffer — reuses one key buffer and one
// value buffer for every Put. With the ordered index active the store
// keeps keys in DRAM; it must have copied them.
func TestPutCopiesCallerBuffers(t *testing.T) {
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP} {
		t.Run(string(kind), func(t *testing.T) {
			s, env := newStore(t, kind)
			if err := s.Scan(nil, nil, func(_, _ []byte) bool { return false }); err != nil {
				t.Fatal(err) // activate the index: every Put below maintains it
			}
			model := make(map[string]string)
			kbuf, vbuf := make([]byte, 0, 32), make([]byte, 0, 64)
			var pinned *Snap
			for i := 0; i < 1000; i++ {
				kbuf = fmt.Appendf(kbuf[:0], "key-%04d", (i*7919)%400)
				vbuf = fmt.Appendf(vbuf[:0], "value-%d-of-%s", i, kbuf)
				if err := s.Put(kbuf, vbuf); err != nil {
					t.Fatal(err)
				}
				model[string(kbuf)] = string(vbuf)
				if i == 500 {
					pinned = s.Snapshot()
				}
			}
			// Scribble over both buffers: nothing the store holds may move.
			for i := range kbuf[:cap(kbuf)] {
				kbuf[:cap(kbuf)][i] = 0xee
			}
			for i := range vbuf[:cap(vbuf)] {
				vbuf[:cap(vbuf)][i] = 0xee
			}
			pinned.Release()

			agree := func(when string, s *Store) {
				t.Helper()
				want := modelRows(model, nil, nil)
				if got := scanAll(t, s.Scan, nil, nil); !equalRows(got, want) {
					t.Fatalf("%s: Scan returned %d rows, model has %d; first rows %v / %v", when, len(got), len(want), got[:min(3, len(got))], want[:min(3, len(want))])
				}
				sn := s.Snapshot()
				defer sn.Release()
				for k, v := range model {
					got, ok, err := sn.Get([]byte(k))
					if err != nil || !ok || string(got) != v {
						t.Fatalf("%s: Snapshot.Get(%s) = %q, %v, %v, want %q", when, k, got, ok, err, v)
					}
				}
				checkStoreIndex(t, s)
			}
			agree("live", s)
			reopened, err := Open(env.RT)
			if err != nil {
				t.Fatal(err)
			}
			agree("reopened", reopened)
		})
	}
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
