package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/hooks"
	"repro/internal/pmem"
	"repro/internal/pmemcheck"
	"repro/internal/pmemobj"
	"repro/internal/variant"
)

// foldKeys are the keys of the folded-reclaim tests; foldVal names key
// and generation, all values of one length so that a store's occupancy
// is a function of its key set.
func foldKey(i int) []byte      { return []byte(fmt.Sprintf("fold-%02d", i)) }
func foldVal(i, gen int) []byte { return []byte(fmt.Sprintf("fold-%02d=g%02d", i, gen)) }

// retireHead reads the shard's persistent retire-chain head.
func retireHead(t testing.TB, s *Store, sh *shard) pmemobj.Oid {
	t.Helper()
	c := newCtx(s.rt)
	head := c.LoadOid(c.Direct(sh.hdr), s.shRetireOff())
	if err := c.Take(); err != nil {
		t.Fatal(err)
	}
	return head
}

// TestFoldedReclaimCrashExplored crashes a write whose transaction also
// frees a retire node at every fence, under every variant. Whatever the
// crash point, recovery yields the store before the write or the store
// after it — the write is not acknowledged until it returns, and it is
// atomic — with every retire chain drained and exactly the blocks that
// store needs: a leaked or doubly freed version shows as occupancy off
// by one. Five writes: a put that folds the oldest of several nodes
// (the chain stays linked; the backlog, the put's own batch included,
// drains in transactions of its own), a put and a delete that fold the
// chain's only node (the retire node of the write itself is linked from
// the shard header the fold just cleared), a put whose value no pool
// holds (it fails at its first allocation, before the fold), and a
// transaction made to fail after its fold, which must roll the fold
// back with it and leave the volatile queue alone.
func TestFoldedReclaimCrashExplored(t *testing.T) {
	const n = 6
	oneBatch := func(t *testing.T, s *Store) {
		if err := s.Put(foldKey(0), foldVal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	scenarios := []struct {
		name    string
		prepare func(t *testing.T, s *Store) // after the preload, before the tracked write
		pending int                          // retire nodes queued before the write
		write   func(t *testing.T, s *Store) error
		after   func(model map[string]string)
		queued  int  // retire nodes queued after a write that succeeds
		fails   bool // the write returns an error and changes nothing
		// afterTxFree: the failure is injected past the fold's TxFree
		// calls. SafePM and memcheck update their shadow state there and
		// hear of no abort, so only the variants without shadow state
		// can go on using the live store (which is why write folds
		// after its last allocation, the failure a healthy store has).
		afterTxFree bool
	}{
		{
			name: "put-chain-keeps-nodes",
			prepare: func(t *testing.T, s *Store) {
				sn := s.Snapshot()
				for i := 0; i < 3; i++ {
					if err := s.Put(foldKey(i), foldVal(i, 1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := sn.Release(); err != nil {
					t.Fatal(err)
				}
			},
			pending: 3,
			write:   func(_ *testing.T, s *Store) error { return s.Put(foldKey(3), foldVal(3, 2)) },
			after:   func(m map[string]string) { m[string(foldKey(3))] = string(foldVal(3, 2)) },
			queued:  0, // a backlog drains to the end, as it always has
		},
		{
			name:    "put-fold-empties-chain",
			prepare: oneBatch,
			pending: 1,
			write:   func(_ *testing.T, s *Store) error { return s.Put(foldKey(1), foldVal(1, 2)) },
			after:   func(m map[string]string) { m[string(foldKey(1))] = string(foldVal(1, 2)) },
			queued:  1,
		},
		{
			name:    "delete-fold-empties-chain",
			prepare: oneBatch,
			pending: 1,
			write: func(_ *testing.T, s *Store) error {
				ok, err := s.Delete(foldKey(1))
				if err == nil && !ok {
					err = fmt.Errorf("Delete found no key")
				}
				return err
			},
			after:  func(m map[string]string) { delete(m, string(foldKey(1))) },
			queued: 1,
		},
		{
			name:    "put-too-large",
			prepare: oneBatch,
			pending: 1,
			write:   func(_ *testing.T, s *Store) error { return s.Put(foldKey(1), make([]byte, 8<<20)) },
			after:   func(map[string]string) {},
			fails:   true,
		},
		{
			name:    "abort-after-fold",
			prepare: oneBatch,
			pending: 1,
			write: func(t *testing.T, s *Store) error {
				c := newCtx(s.rt)
				return c.Run(func(tx *pmemobj.Tx) {
					if !s.foldReclaim(c, tx, &s.shards[0]) {
						t.Error("the transaction had nothing to fold")
					}
					c.Fail(errors.New("injected failure after the fold"))
				})
			},
			after:       func(map[string]string) {},
			fails:       true,
			afterTxFree: true,
		},
	}
	for _, kind := range variant.Kinds {
		for _, sc := range scenarios {
			t.Run(string(kind)+"/"+sc.name, func(t *testing.T) {
				opts := variant.Options{PoolSize: 4 << 20, HeapSize: 1 << 20}
				env, err := variant.New(kind, opts)
				if err != nil {
					t.Fatal(err)
				}
				s, err := Open(env.RT, WithShards(1))
				if err != nil {
					t.Fatal(err)
				}
				model := make(map[string]string)
				for i := 0; i < n; i++ {
					model[string(foldKey(i))] = string(foldVal(i, 0))
					if err := s.Put(foldKey(i), foldVal(i, 0)); err != nil {
						t.Fatal(err)
					}
				}
				sc.prepare(t, s)
				for i := 0; i < n; i++ {
					if v, ok, err := s.Get(foldKey(i)); err != nil || !ok {
						t.Fatal(ok, err)
					} else {
						model[string(foldKey(i))] = string(v)
					}
				}
				sh := &s.shards[0]
				if len(sh.retired) != sc.pending {
					t.Fatalf("%d retire nodes queued before the write, want %d", len(sh.retired), sc.pending)
				}
				tailBefore, headBefore := sh.retireTail, retireHead(t, s, sh)
				before := make(map[string]string, len(model))
				for k, v := range model {
					before[k] = v
				}
				base := make([]byte, env.Dev.Size())
				copy(base, env.Dev.Data())

				tr := pmemcheck.NewTracker()
				env.Dev.EnableTracking(tr)
				werr := sc.write(t, s)
				env.Dev.DisableTracking()
				if (werr != nil) != sc.fails {
					t.Fatalf("write returned %v, want failure: %v", werr, sc.fails)
				}
				sc.after(model)
				if sc.fails {
					// The abort undid the fold in PM; DRAM must agree.
					if len(sh.retired) != sc.pending || sh.retireTail != tailBefore || retireHead(t, s, sh) != headBefore {
						t.Fatalf("aborted write moved the retire queue: %d nodes (want %d), tail %v (want %v), chain head %v (want %v)",
							len(sh.retired), sc.pending, sh.retireTail, tailBefore, retireHead(t, s, sh), headBefore)
					}
					// And the next write folds the node the abort kept.
					if !sc.afterTxFree || kind == variant.PMDK || kind == variant.SPP {
						if err := s.Put(foldKey(2), foldVal(2, 0)); err != nil {
							t.Fatal(err)
						}
						if len(sh.retired) != 1 || retireHead(t, s, sh) == headBefore {
							t.Fatalf("the write after the abort did not fold: %d nodes queued", len(sh.retired))
						}
					}
				} else if len(sh.retired) != sc.queued {
					t.Fatalf("%d retire nodes queued after the write, want %d", len(sh.retired), sc.queued)
				}
				if rep := pmemcheck.Analyze(tr.Events()); !rep.Clean() {
					t.Fatalf("protocol violations: %v", rep.Violations[:min(3, len(rep.Violations))])
				}

				// recovered opens img as a restarted process would and
				// returns the content and the occupancy it finds, after
				// checking the chain is drained.
				recovered := func(img []byte) (map[string]string, pmemobj.Stats, error) {
					dev := pmem.NewPool("fold-crash", uint64(len(img)))
					copy(dev.Data(), img)
					env2, err := variant.AdoptConfig(kind, dev, opts)
					if err != nil {
						return nil, pmemobj.Stats{}, err
					}
					s2, err := Open(env2.RT)
					if err != nil {
						return nil, pmemobj.Stats{}, err
					}
					sh2 := &s2.shards[0]
					if len(sh2.retired) != 0 || !sh2.retireTail.IsNull() || !retireHead(t, s2, sh2).IsNull() {
						return nil, pmemobj.Stats{}, fmt.Errorf("retire chain survived recovery")
					}
					got := make(map[string]string)
					for i := 0; i < n; i++ {
						v, ok, err := s2.Get(foldKey(i))
						if err != nil {
							return nil, pmemobj.Stats{}, fmt.Errorf("Get(%s): %w", foldKey(i), err)
						}
						if ok {
							got[string(foldKey(i))] = string(v)
						}
					}
					if cnt, err := s2.Count(); err != nil || cnt != uint64(len(got)) {
						return nil, pmemobj.Stats{}, fmt.Errorf("Count = %d, %v; %d keys reachable", cnt, err, len(got))
					}
					return got, env2.Pool.Stats(), nil
				}
				sameModel := func(a, b map[string]string) bool {
					if len(a) != len(b) {
						return false
					}
					for k, v := range a {
						if b[k] != v {
							return false
						}
					}
					return true
				}
				// What a drained store of this content occupies comes from
				// the image before the write, which no fold helped build:
				// the same again after a put (all values are one length),
				// one object fewer after the delete. The image the write
				// left behind must recover to that too.
				gotBefore, wantBefore, err := recovered(base)
				if err != nil || !sameModel(gotBefore, before) {
					t.Fatalf("the image before the write recovers to %v (%v), want %v", gotBefore, err, before)
				}
				exact := func(got map[string]string, st pmemobj.Stats) error {
					wantObjects := wantBefore.AllocatedObjects - uint64(len(before)-len(got))
					if st.AllocatedObjects != wantObjects ||
						(len(got) == len(before) && st.AllocatedBytes != wantBefore.AllocatedBytes) ||
						(len(got) < len(before) && st.AllocatedBytes >= wantBefore.AllocatedBytes) {
						return fmt.Errorf("%d keys in %d objects / %d bytes after recovery; %d keys took %d / %d",
							len(got), st.AllocatedObjects, st.AllocatedBytes, len(before), wantBefore.AllocatedObjects, wantBefore.AllocatedBytes)
					}
					return nil
				}
				if gotAfter, st, err := recovered(env.Dev.Data()); err != nil || !sameModel(gotAfter, model) {
					t.Fatalf("the image after the write recovers to %v (%v), want %v", gotAfter, err, model)
				} else if err := exact(gotAfter, st); err != nil {
					t.Fatalf("the image after the write: %v", err)
				}
				sawBefore, sawAfter := 0, 0
				states, err := pmemcheck.Explore(base, tr.Events(),
					pmemcheck.ExploreOptions{EveryNthFence: 1, MaxSingles: 1},
					func(img []byte) error {
						got, st, err := recovered(img)
						if err != nil {
							return err
						}
						switch {
						case sameModel(got, before):
							sawBefore++
						case sameModel(got, model):
							sawAfter++
						default:
							return fmt.Errorf("recovered %v: neither the store before the write nor the one after", got)
						}
						return exact(got, st)
					})
				if err != nil {
					t.Fatalf("inconsistent crash state: %v", err)
				}
				if sawBefore == 0 || (!sc.fails && sawAfter == 0) {
					t.Errorf("explored %d states: %d before the write, %d after; want both sides of the commit point", states, sawBefore, sawAfter)
				}
				t.Logf("%d crash states consistent (%d before the write, %d after)", states, sawBefore, sawAfter)
			})
		}
	}
}

// countingRT counts the instrumentation calls the application layer
// makes, whatever the variant does with them.
type countingRT struct {
	hooks.Runtime
	checks, geps, memintrs int
}

func (r *countingRT) Gep(p uint64, off int64) uint64 { r.geps++; return r.Runtime.Gep(p, off) }
func (r *countingRT) Check(p, n uint64) (uint64, error) {
	r.checks++
	return r.Runtime.Check(p, n)
}
func (r *countingRT) CheckPM(p, n uint64) (uint64, error) {
	r.checks++
	return r.Runtime.CheckPM(p, n)
}
func (r *countingRT) MemIntr(p, n uint64) (uint64, error) {
	r.memintrs++
	return r.Runtime.MemIntr(p, n)
}

// hookCounts is {checks, geps, memintrs}.
type hookCounts [3]int

// TestWriteHookCounts pins what one steady-state overwrite and one
// delete run through the hooks, reclaim of one single-version retire
// node included, per variant, at the figures of the commit before
// reclaim moved into the writer's transaction: the fold may move the
// reclaim's checked accesses, it may not add or drop one. (The store's
// own accesses are the same under every variant; the layouts differ in
// oid width only, which no count depends on.)
func TestWriteHookCounts(t *testing.T) {
	wantPut, wantDel := hookCounts{15, 18, 3}, hookCounts{14, 15, 1}
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			env, err := variant.New(kind, variant.Options{PoolSize: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			rt := &countingRT{Runtime: env.RT}
			s, err := Open(rt, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			// Four keys, each alone in its bucket: every write below
			// supersedes exactly one entry.
			var keys [][]byte
			taken := make(map[uint64]bool)
			for i := 0; len(keys) < 4; i++ {
				k := []byte(fmt.Sprintf("hook-%03d", i))
				if b := s.bucketOf(hashKey(k), initialBuckets); !taken[b] {
					taken[b] = true
					keys = append(keys, k)
				}
			}
			val := bytes.Repeat([]byte("v"), 100)
			for _, k := range keys {
				if err := s.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			measure := func(op func() error) hookCounts {
				t.Helper()
				c0, g0, m0 := rt.checks, rt.geps, rt.memintrs
				if err := op(); err != nil {
					t.Fatal(err)
				}
				return hookCounts{rt.checks - c0, rt.geps - g0, rt.memintrs - m0}
			}
			// The first overwrite has nothing to reclaim yet; from the
			// second on, each write frees one node of one version.
			if err := s.Put(keys[0], val); err != nil {
				t.Fatal(err)
			}
			put := measure(func() error { return s.Put(keys[1], val) })
			del := measure(func() error { _, err := s.Delete(keys[2]); return err })
			t.Logf("%s: overwrite %v, delete %v {checks, geps, memintrs}", kind, put, del)
			if put != wantPut {
				t.Errorf("an overwrite runs %v {checks, geps, memintrs}, the parent commit ran %v", put, wantPut)
			}
			if del != wantDel {
				t.Errorf("a delete runs %v {checks, geps, memintrs}, the parent commit ran %v", del, wantDel)
			}
		})
	}
}
