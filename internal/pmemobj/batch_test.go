package pmemobj

import (
	"testing"

	"repro/internal/pmem"
)

// dedupPool opens a small pool for interval-set tests.
func dedupPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	dev := pmem.NewPool("dedup", 4<<20)
	p, err := Create(dev, nil, testBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ranges(tx *Tx) []txRange { return tx.ranges }

func TestAddRangeDedupMergesIntervals(t *testing.T) {
	p := dedupPool(t, Config{})
	oid, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	base := oid.Off
	tx := p.Begin()
	defer tx.Abort()

	cases := []struct {
		off, size uint64
		want      []txRange // expected interval set after the call
	}{
		{base + 100, 50, []txRange{{base + 100, 50}}},
		// Fully covered: set unchanged.
		{base + 110, 20, []txRange{{base + 100, 50}}},
		// Identical request: unchanged.
		{base + 100, 50, []txRange{{base + 100, 50}}},
		// Disjoint to the right.
		{base + 300, 10, []txRange{{base + 100, 50}, {base + 300, 10}}},
		// Overlapping extension to the left.
		{base + 80, 40, []txRange{{base + 80, 70}, {base + 300, 10}}},
		// Adjacent on the right edge merges.
		{base + 150, 10, []txRange{{base + 80, 80}, {base + 300, 10}}},
		// Spanning request swallows everything between.
		{base + 50, 300, []txRange{{base + 50, 300}}},
	}
	for i, c := range cases {
		if err := tx.AddRange(c.off, c.size); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := ranges(tx)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: intervals %v, want %v", i, got, c.want)
		}
		for k := range got {
			if got[k] != c.want[k] {
				t.Fatalf("case %d: intervals %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestAddRangeDedupSkipsCoveredBytes(t *testing.T) {
	p := dedupPool(t, Config{})
	oid, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	if err := tx.AddRange(oid.Off, 256); err != nil {
		t.Fatal(err)
	}
	before := tx.undoBytes
	// Re-adding any sub-range must not grow the undo log.
	for _, r := range []txRange{{oid.Off, 256}, {oid.Off + 8, 8}, {oid.Off + 200, 56}} {
		if err := tx.AddRange(r.off, r.size); err != nil {
			t.Fatal(err)
		}
	}
	if tx.undoBytes != before {
		t.Fatalf("undo grew from %d to %d on covered re-adds", before, tx.undoBytes)
	}
	// A half-covered request snapshots only the uncovered half.
	if err := tx.AddRange(oid.Off+192, 128); err != nil {
		t.Fatal(err)
	}
	if tx.undoBytes != before+64 {
		t.Fatalf("undo grew by %d, want 64", tx.undoBytes-before)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRangeDedupRollbackEquivalence mutates overlapping ranges and
// aborts; the deduplicated undo log must restore the original bytes.
func TestAddRangeDedupRollbackEquivalence(t *testing.T) {
	p := dedupPool(t, Config{})
	oid, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	for i := uint64(0); i < 128; i++ {
		dev.WriteU64(oid.Off+i*8, i)
	}
	dev.Persist(oid.Off, 1024)

	tx := p.Begin()
	// Overlapping adds interleaved with stores: later adds must not
	// re-snapshot bytes the tx already dirtied.
	if err := tx.AddRange(oid.Off, 512); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		dev.WriteU64(oid.Off+i*8, 0xdead)
	}
	if err := tx.AddRange(oid.Off+256, 512); err != nil {
		t.Fatal(err)
	}
	for i := uint64(64); i < 96; i++ { // words 64..95 stay inside [256,768)
		dev.WriteU64(oid.Off+i*8, 0xbeef)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 128; i++ {
		if got := dev.ReadU64(oid.Off + i*8); got != i {
			t.Fatalf("word %d = %#x after abort, want %d", i, got, i)
		}
	}
}
