package kvstore

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/variant"
)

// reopenStore adopts dev as a restarted process would, with the
// options its first process ran under, and opens its store.
func reopenStore(kind variant.Kind, dev *pmem.Pool, opts variant.Options) (*Store, error) {
	env, err := variant.AdoptConfig(kind, dev, opts)
	if err != nil {
		return nil, err
	}
	return Open(env.RT)
}

// fuzzKey maps one script byte to a key of one to three letters over a
// four-letter alphabet: 84 keys, many of them prefixes of others, so
// byte order, chain collisions in a one-shard store and (past 64 live
// keys) a rehash are all within a short script's reach.
func fuzzKey(b byte) []byte {
	k := []byte{'a' + b&3}
	if b&4 != 0 {
		k = append(k, 'a'+(b>>3)&3)
		if b&32 != 0 {
			k = append(k, 'a'+(b>>6)&3)
		}
	}
	return k
}

// fuzzBound is fuzzKey with nil (unbounded) mixed in.
func fuzzBound(b byte) []byte {
	if b%7 == 0 {
		return nil
	}
	return fuzzKey(b)
}

// FuzzKVScanModel runs byte-driven op scripts against a one-shard SPP
// store and a sorted-map model. Each op is three bytes {op, a, b}: Put,
// Delete, Scan[lo, hi, limit], Snapshot, snap-Scan, Release, Reclaim and
// reopen — of the store's own image or, on an odd a, of a version-0
// image holding the same pairs. Every live scan must equal the model,
// every snapshot scan the copy of the model frozen when it was pinned,
// no access may trap, and whenever the store is indexed the index must
// equal the chain walk.
func FuzzKVScanModel(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*400 {
			script = script[:3*400]
		}
		opts := variant.Options{PoolSize: 4 << 20, HeapSize: 1 << 20}
		env, err := variant.New(variant.SPP, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(env.RT, WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]string)
		type pinned struct {
			sn     *Snap
			frozen map[string]string
		}
		var snaps []pinned
		checkScan := func(what string, scan func(lo, hi []byte, fn func(k, v []byte) bool) error, m map[string]string, lo, hi []byte, limit int) {
			t.Helper()
			want := modelRows(m, lo, hi)
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			var got []string
			if err := scan(lo, hi, func(k, v []byte) bool {
				got = append(got, string(k)+"="+string(v))
				return limit == 0 || len(got) < limit
			}); err != nil {
				t.Fatalf("%s [%q,%q) limit %d: %v", what, lo, hi, limit, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s [%q,%q) limit %d = %v, want %v", what, lo, hi, limit, got, want)
			}
		}
		checkIndex := func() {
			t.Helper()
			if s.indexed.Load() {
				checkStoreIndex(t, s)
			}
		}
		for step := 0; len(script) >= 3; step++ {
			op, a, b := script[0], script[1], script[2]
			script = script[3:]
			switch op % 9 {
			case 0, 1:
				k := fuzzKey(a)
				v := fmt.Sprintf("%s@%d:%0*d", k, step, int(b%40), 0)
				model[string(k)] = v
				if err := s.Put(k, []byte(v)); err != nil {
					t.Fatalf("Put(%q): %v", k, err)
				}
				checkIndex()
			case 2:
				k := fuzzKey(a)
				_, had := model[string(k)]
				delete(model, string(k))
				if ok, err := s.Delete(k); err != nil || ok != had {
					t.Fatalf("Delete(%q) = %v, %v; model had it: %v", k, ok, err, had)
				}
				checkIndex()
			case 3:
				checkScan("Scan", s.Scan, model, fuzzBound(a), fuzzBound(b), int(op/9)%5)
			case 4:
				if len(snaps) < 4 {
					frozen := make(map[string]string, len(model))
					for k, v := range model {
						frozen[k] = v
					}
					snaps = append(snaps, pinned{s.Snapshot(), frozen})
				}
			case 5:
				if len(snaps) > 0 {
					p := snaps[int(a)%len(snaps)]
					checkScan("Snap.Scan", p.sn.Scan, p.frozen, fuzzBound(b), fuzzBound(op/9), 0)
				}
			case 6:
				if len(snaps) > 0 {
					i := int(a) % len(snaps)
					if err := snaps[i].sn.Release(); err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps[:i], snaps[i+1:]...)
				}
			case 7:
				if err := s.Reclaim(); err != nil {
					t.Fatal(err)
				}
			case 8:
				// A restart: snapshots and the index are volatile and
				// die with the old process; the data must not. On an odd
				// a the new process finds the data as a build from before
				// the placement word left it: two shards, so that the old
				// rule and bucketOf disagree.
				snaps = nil
				if a&1 == 1 {
					env = legacyImage(t, variant.SPP, opts, 2, model)
				}
				if s, err = reopenStore(variant.SPP, env.Dev, opts); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			}
		}
		for _, p := range snaps {
			checkScan("Snap.Scan", p.sn.Scan, p.frozen, nil, nil, 0)
			if err := p.sn.Release(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Reclaim(); err != nil {
			t.Fatal(err)
		}
		checkScan("Scan", s.Scan, model, nil, nil, 0)
		checkStoreIndex(t, s)
		if n, err := s.Count(); err != nil || n != uint64(len(model)) {
			t.Fatalf("Count = %d, %v; model holds %d", n, err, len(model))
		}
	})
}
