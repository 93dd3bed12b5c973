package pmemobj

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/pmemcheck"
)

// stormConfig pins the UUID so images are comparable across runs, and
// one arena so the storm's allocations land deterministically.
func stormConfig() Config {
	return Config{UUID: 7, Knobs: Knobs{NArenas: 1}}
}

// batchCrashStorm drives a deterministic mix of committed transactions
// exercising every leg of the batched pipeline: overlapping snapshots
// (dedup), multi-entry redo publication (allocs and frees), and a
// generation/cell pair whose agreement proves atomicity after a crash.
func batchCrashStorm(p *Pool, rootOff, dataOff uint64, txs int) error {
	dev := p.dev
	var live []Oid
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for g := uint64(1); g <= uint64(txs); g++ {
		tx := p.Begin()
		if err := tx.AddRange(rootOff, 16); err != nil {
			_ = tx.Abort()
			return err
		}
		for k := 0; k < 6; k++ {
			off := dataOff + (next()%24)*64
			if err := tx.AddRange(off, 96); err != nil {
				_ = tx.Abort()
				return err
			}
			dev.WriteU64(off, g<<32|uint64(k))
		}
		if g%2 == 1 {
			oid, err := tx.Alloc(64 + next()%128)
			if err != nil {
				_ = tx.Abort()
				return err
			}
			live = append(live, oid)
		} else if len(live) > 0 {
			if err := tx.Free(live[0]); err != nil {
				_ = tx.Abort()
				return err
			}
			live = live[1:]
		}
		dev.WriteU64(rootOff, g)
		dev.WriteU64(rootOff+8, g*1000)
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// TestBatchedCommitCrashEquivalenceAllKnobs explores every crash point
// (every fence, pmreorder-style) of the storm through the one commit
// pipeline — undo-range dedup, flush coalescing and the group fence all
// on. Whatever the batching does to the flush/fence stream, recovery
// from any power-loss image must yield an agreeing generation/cell pair
// and a walkable heap.
//
// The subtest keeps the name of the all-legs-on knob mask, which is now
// the only pipeline.
func TestBatchedCommitCrashEquivalenceAllKnobs(t *testing.T) {
	t.Run("mask=0", batchedCommitCrashEquivalence)
}

func batchedCommitCrashEquivalence(t *testing.T) {
	cfg := stormConfig()
	// Tight log geometry so the storm also crosses the redo- and
	// undo-extension paths.
	cfg.NLanes = 2
	cfg.RedoEntries = 4
	cfg.UndoBytes = 256
	dev := pmem.NewPool("batch-crash", 1<<20)
	p, err := Create(dev, nil, testBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root, err := p.Root(16)
	if err != nil {
		t.Fatal(err)
	}
	dev.Persist(root.Off, 16)
	data, err := p.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}

	base := make([]byte, dev.Size())
	copy(base, dev.Data())
	tr := pmemcheck.NewTracker()
	dev.EnableTracking(tr)
	const txs = 6
	if err := batchCrashStorm(p, root.Off, data.Off, txs); err != nil {
		t.Fatal(err)
	}
	dev.DisableTracking()

	rep := pmemcheck.Analyze(tr.Events())
	if !rep.Clean() {
		t.Fatalf("protocol violations: %v", rep.Violations[0])
	}
	states, err := pmemcheck.Explore(base, tr.Events(),
		pmemcheck.ExploreOptions{EveryNthFence: 1, MaxSingles: 3, MaxStates: 2000},
		func(img []byte) error {
			d2 := pmem.NewPool("batch-crash-img", uint64(len(img)))
			copy(d2.Data(), img)
			q, err := OpenConfig(d2, nil, testBase, cfg)
			if err != nil {
				return err
			}
			gen := d2.ReadU64(root.Off)
			cell := d2.ReadU64(root.Off + 8)
			if cell != gen*1000 {
				return fmt.Errorf("torn root: gen=%d cell=%d", gen, cell)
			}
			if gen > txs {
				return fmt.Errorf("impossible generation %d", gen)
			}
			if err := walkCheck(q); err != nil {
				return err
			}
			// Recovery must be repeatable.
			if _, err := OpenConfig(d2, nil, testBase, cfg); err != nil {
				return fmt.Errorf("second recovery: %w", err)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("crash exploration: %v", err)
	}
	if states == 0 {
		t.Fatal("explored no states")
	}
}

// TestBatchedCommitDurableImageMatchesUnbatched checks that the batched
// pipeline, which reorders and merges flushes, still leaves nothing
// behind: once the storm's last Commit returns, the durable image equals
// the working image byte for byte over the header and the heap. It also
// pins the pipeline's deterministic flush/fence traffic as upper bounds,
// at exactly the counts it issues: an undo range snapshotted twice adds
// fences, and an uncoalesced commit flushes duplicate lines.
func TestBatchedCommitDurableImageMatchesUnbatched(t *testing.T) {
	const (
		maxFences     = 174
		maxDupFlushes = 4
	)
	// Default log geometry: the workload stays inside the lane logs.
	dev := pmem.NewPool("batch-img", 1<<22)
	p, err := Create(dev, nil, testBase, stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	root, err := p.Root(16)
	if err != nil {
		t.Fatal(err)
	}
	dev.Persist(root.Off, 16)
	data, err := p.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	tr := pmemcheck.NewTracker()
	dev.EnableTracking(tr)
	if err := batchCrashStorm(p, root.Off, data.Off, 8); err != nil {
		t.Fatal(err)
	}
	img, err := dev.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	dev.DisableTracking()
	regions := []struct {
		name   string
		lo, hi uint64
	}{
		{"header", 0, headerSize},
		{"heap", p.heapOff, p.heapEnd},
	}
	for _, r := range regions {
		durable, working := img[r.lo:r.hi], dev.Data()[r.lo:r.hi]
		if !bytes.Equal(durable, working) {
			for i := range durable {
				if durable[i] != working[i] {
					t.Fatalf("%s region not durable at offset %#x: durable %#x, working %#x",
						r.name, r.lo+uint64(i), durable[i], working[i])
				}
			}
		}
	}
	rep := pmemcheck.Analyze(tr.Events())
	t.Logf("%d fences, %d duplicate-line flushes", rep.Fences, rep.DuplicateLineFlushes)
	if rep.Fences > maxFences {
		t.Errorf("storm issued %d fences, want <= %d", rep.Fences, maxFences)
	}
	if rep.DuplicateLineFlushes > maxDupFlushes {
		t.Errorf("storm flushed %d duplicate lines, want <= %d", rep.DuplicateLineFlushes, maxDupFlushes)
	}
}
