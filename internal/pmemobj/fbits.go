package pmemobj

import "math/bits"

// The free-bitmap allocator (DESIGN.md §14). Every free block up to
// smallClassMax is found through gostore-style hierarchical free
// bitmaps, so "smallest free block ≥ need" costs O(1) word operations
// instead of a scan over every distinct block size:
//
//   - a size-class index: block sizes up to smallClassMax bucket into
//     one class per blockAlign step (class = size>>smallShift, exact
//     because every block size is blockAlign-aligned). A hierarchical
//     bitmap over the classes answers "smallest occupied class ≥ need"
//     in O(1) word operations;
//   - per-class LIFO stacks of block offsets, pushed and popped in
//     O(1);
//   - a flat per-arena slot bitmap (one bit per blockAlign of arena
//     span) recording which offsets hold a live free-listed block.
//     Membership tests — the free-at-time forward merge, stale-entry
//     validation — become a single bit test instead of a map lookup.
//
// Removal of an arbitrary block (the forward merge in planFree) only
// clears its slot bit; the stack entry goes stale and is discarded
// lazily the next time its class is popped. A popped entry is live iff
// its slot bit is set AND the persistent block header still carries the
// class's size — the header of every free-listed block equals its free
// size (releaseBlock, split remainders, redo publication and rebuild
// all persist the header before listing the block), so the pair
// (bit, header) disambiguates every reuse of an offset. Blocks larger
// than smallClassMax live on the arena's size-keyed free/freeSet maps;
// they are rare (class padding caps most requests well below
// smallClassMax) and excluded from the slot bitmap.

const (
	// smallShift is the class granularity: one class per blockAlign.
	smallShift = 4
	// smallClassMax is the largest block size served by the bitmap
	// pools; larger blocks use the arena's size-keyed maps.
	smallClassMax = 2048
	// nSmallClasses indexes classes 0..smallClassMax>>smallShift.
	nSmallClasses = smallClassMax>>smallShift + 1
)

// fbits is a hierarchical bitmap: level 0 holds the bits, every higher
// level holds one summary bit per word below (set iff the word is
// non-zero), and the top level is a single word. Set, clear and
// next-set-bit all cost O(levels) word operations — effectively O(1)
// for any realistic size.
type fbits struct {
	n      int
	levels [][]uint64
}

func newFbits(n int) *fbits {
	if n < 1 {
		n = 1
	}
	f := &fbits{n: n}
	words := (n + 63) / 64
	for {
		f.levels = append(f.levels, make([]uint64, words))
		if words == 1 {
			return f
		}
		words = (words + 63) / 64
	}
}

func (f *fbits) set(i int) {
	for _, words := range f.levels {
		w := i >> 6
		words[w] |= 1 << uint(i&63)
		i = w
	}
}

func (f *fbits) clear(i int) {
	for _, words := range f.levels {
		w := i >> 6
		words[w] &^= 1 << uint(i&63)
		if words[w] != 0 {
			return // the summary bit above stays set
		}
		i = w
	}
}

func (f *fbits) test(i int) bool {
	return f.levels[0][i>>6]&(1<<uint(i&63)) != 0
}

// nextSet returns the smallest set bit ≥ i, or -1. It scans the word
// holding i at level 0, then climbs the summaries until a level has a
// set bit at or after the current position and descends back to the
// first bit it implies.
func (f *fbits) nextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= f.n {
		return -1
	}
	pos, lvl := i, 0
	for {
		words := f.levels[lvl]
		if w := pos >> 6; w < len(words) {
			if rem := words[w] >> uint(pos&63); rem != 0 {
				pos += bits.TrailingZeros64(rem)
				for lvl > 0 { // descend: pos is a non-zero word below
					lvl--
					pos = pos<<6 + bits.TrailingZeros64(f.levels[lvl][pos])
				}
				return pos
			}
			pos = w + 1
		} else {
			pos = len(words) // past the end: force the climb
		}
		lvl++
		if lvl >= len(f.levels) {
			return -1
		}
	}
}

// classPools is one arena's small-block free structure: the class-occupancy
// index, the per-class offset stacks and the slot membership bitmap.
type classPools struct {
	occ    *fbits
	stacks [nSmallClasses][]uint64
	slots  []uint64 // bit per blockAlign of arena span: free block starts here
}

func newClassPools(span uint64) *classPools {
	return &classPools{
		occ:   newFbits(nSmallClasses),
		slots: make([]uint64, (span>>smallShift+63)/64),
	}
}

func (b *classPools) slotOf(lo, off uint64) uint64 { return (off - lo) >> smallShift }

func (b *classPools) testSlot(lo, off uint64) bool {
	s := b.slotOf(lo, off)
	return b.slots[s>>6]&(1<<(s&63)) != 0
}

func (b *classPools) setSlot(lo, off uint64) {
	s := b.slotOf(lo, off)
	b.slots[s>>6] |= 1 << (s & 63)
}

func (b *classPools) clearSlot(lo, off uint64) {
	s := b.slotOf(lo, off)
	b.slots[s>>6] &^= 1 << (s & 63)
}

// push lists a free block of the given (small) size.
func (b *classPools) push(lo, off, size uint64) {
	c := int(size >> smallShift)
	b.stacks[c] = append(b.stacks[c], off)
	b.occ.set(c)
	b.setSlot(lo, off)
}

// take delists the block at off if it is live, reporting whether it
// was. Only the slot bit is cleared; the stack entry goes stale and is
// skipped when popped.
func (b *classPools) take(lo, off uint64) bool {
	if !b.testSlot(lo, off) {
		return false
	}
	b.clearSlot(lo, off)
	return true
}

// pickSmall pops the best-fitting live block for a request of need
// bytes: the lowest occupied class ≥ need's class, skipping (and
// discarding) stale entries. The returned block is removed from its
// stack but keeps its slot bit — the caller's removeFree settles it.
func (b *classPools) pickSmall(p *Pool, lo, need uint64) (off, size uint64, ok bool) {
	for c := b.occ.nextSet(int(need >> smallShift)); c >= 0; c = b.occ.nextSet(c + 1) {
		want := uint64(c) << smallShift
		st := b.stacks[c]
		for len(st) > 0 {
			e := st[len(st)-1]
			st = st[:len(st)-1]
			if b.testSlot(lo, e) && p.dev.ReadU64(e) == want {
				b.stacks[c] = st
				if len(st) == 0 {
					b.occ.clear(c)
				}
				return e, want, true
			}
		}
		b.stacks[c] = st
		b.occ.clear(c)
	}
	return 0, 0, false
}

// reset clears every class stack, the occupancy index and the slot
// bitmap for repopulation.
func (b *classPools) reset() {
	for c := range b.stacks {
		b.stacks[c] = b.stacks[c][:0]
	}
	for c := b.occ.nextSet(0); c >= 0; c = b.occ.nextSet(c + 1) {
		b.occ.clear(c)
	}
	for i := range b.slots {
		b.slots[i] = 0
	}
}
