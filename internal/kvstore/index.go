// The ordered index of an immutable shard root (DESIGN.md §17).
//
// A rootIndex has two halves. The tree is a persistent treap over the
// shard's keys: every update copies the nodes on the path it touches
// and shares the rest with the tree it derived from. A node does not
// name its entry; it names a slot, and the slot tables — one per page
// of 64 buckets, holding the entries of that page's chains — say which
// entry fills it. A key keeps its slot for as long as it lives, so the
// writes that only move entries (an overwrite, and the copy-on-write of
// the chain prefix in front of it) replace one slot table and leave the
// tree alone; only an insert or a delete copies a tree path. Both
// halves are immutable once their root is published, so a root keeps
// the exact index it was published with for as long as a snapshot pins
// it.
//
// The index lives in DRAM only and orders nothing but keys the hooks
// already loaded; a scan uses it to decide which entries to read, then
// reads every byte it returns from PM through the hooks.
//
// A node's priority is a hash of its key, which makes the tree shape a
// function of the key set alone: a tree maintained put by put is
// identical to one built from scratch over the same population.
package kvstore

import (
	"bytes"
	"slices"

	"repro/internal/pmemobj"
)

// ixPageBits groups a shard's buckets into the pages the slot tables
// are kept by: a write copies the table of one page, 64 chains' worth
// of slots, whatever the bucket count.
const (
	ixPageBits = 6
	ixPageSize = 1 << ixPageBits
)

// ixPage returns the page of bucket b.
func ixPage(b uint64) uint32 { return uint32(b >> ixPageBits) }

// rootIndex is the ordered index of one shardRoot: the tree orders the
// keys, the slot tables bind each key's slot to its entry.
type rootIndex struct {
	tree  *ixNode
	slots [][]pmemobj.Oid // by bucket page, then slot; a null oid is a free slot
}

// ixRef addresses one slot.
type ixRef struct {
	page, slot uint32
}

// ixNode is one treap node. Nodes are never mutated once the root that
// holds them is published; key is shared between every copy of a node.
type ixNode struct {
	key         []byte
	prio        uint64
	ref         ixRef
	left, right *ixNode
}

// entry returns the entry that holds n's key in ix's root.
func (ix *rootIndex) entry(n *ixNode) pmemobj.Oid {
	return ix.slots[n.ref.page][n.ref.slot]
}

// slotOf returns the slot of tbl filled by entry — by offset, since a
// store lives in one pool and only SPP layouts persist an oid's size —
// or len(tbl) when none is. The null oid finds a free slot.
func slotOf(tbl []pmemobj.Oid, entry pmemobj.Oid) int {
	for i := range tbl {
		if tbl[i].Off == entry.Off {
			return i
		}
	}
	return len(tbl)
}

// apply returns the index of the root that follows ix's by one
// committed mutation of a chain on bucket page page: key's entry match
// (null: key is new) gave way to fresh (null: key is deleted), and
// each prefix[i] the copy-on-write re-allocated gave way to copies[i].
// The prefix rule is not optional: the superseded entries are on the
// retire chain, so an index still naming them reads freed memory once
// they are reclaimed. An entry the index does not hold is a missed
// update, and indexes out of range here rather than at some later scan.
func (ix *rootIndex) apply(page uint32, key []byte, match, fresh pmemobj.Oid, prefix, copies []pmemobj.Oid) *rootIndex {
	old := ix.slots[page]
	tbl := make([]pmemobj.Oid, len(old), len(old)+1)
	copy(tbl, old)
	for i, cp := range copies {
		tbl[slotOf(tbl, prefix[i])] = cp
	}
	next := &rootIndex{tree: ix.tree, slots: append([][]pmemobj.Oid(nil), ix.slots...)}
	switch {
	case match.IsNull():
		slot := slotOf(tbl, pmemobj.OidNull)
		if slot == len(tbl) {
			tbl = append(tbl, fresh)
		} else {
			tbl[slot] = fresh
		}
		next.tree = ixPut(ix.tree, key, ixRef{page, uint32(slot)})
	case fresh.IsNull():
		tbl[slotOf(tbl, match)] = pmemobj.OidNull
		next.tree = ixDelete(ix.tree, key)
	default:
		tbl[slotOf(tbl, match)] = fresh
	}
	next.slots[page] = tbl
	return next
}

// ixBuilder indexes a whole population: add every entry, then index.
type ixBuilder struct {
	nodes []ixNode
	slots [][]pmemobj.Oid
}

func newIxBuilder(root *shardRoot) *ixBuilder {
	return &ixBuilder{
		nodes: make([]ixNode, 0, root.count),
		slots: make([][]pmemobj.Oid, (root.nbuckets+ixPageSize-1)>>ixPageBits),
	}
}

// add records that entry, on the chain of bucket, holds key. The
// caller owns key; the builder keeps a copy.
func (b *ixBuilder) add(bucket uint64, key []byte, entry pmemobj.Oid) {
	page := ixPage(bucket)
	key = append([]byte(nil), key...)
	ref := ixRef{page, uint32(len(b.slots[page]))}
	b.slots[page] = append(b.slots[page], entry)
	b.nodes = append(b.nodes, ixNode{key: key, prio: ixPrio(key), ref: ref})
}

// index builds the treap in O(n) after sorting: each node in key order
// becomes the rightmost, adopting as its left child the run of
// lower-priority nodes it displaces from the right spine.
func (b *ixBuilder) index() *rootIndex {
	nodes := b.nodes
	slices.SortFunc(nodes, func(x, y ixNode) int { return bytes.Compare(x.key, y.key) })
	var spine []*ixNode
	for i := range nodes {
		n := &nodes[i]
		for len(spine) > 0 && spine[len(spine)-1].prio < n.prio {
			n.left = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	ix := &rootIndex{slots: b.slots}
	if len(spine) > 0 {
		ix.tree = spine[0]
	}
	return ix
}

// ixPrio scrambles the key hash (splitmix64 finalizer): every key of a
// shard shares its hash modulo the shard count, and heap order must
// not correlate with key order.
func ixPrio(key []byte) uint64 {
	x := hashKey(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// ixPut returns n with key bound to ref. An existing key keeps its
// node position and shares its key bytes; a new key is copied, since
// the caller owns key.
func ixPut(n *ixNode, key []byte, ref ixRef) *ixNode {
	if n == nil {
		return &ixNode{key: append([]byte(nil), key...), prio: ixPrio(key), ref: ref}
	}
	c := *n
	switch cmp := bytes.Compare(key, n.key); {
	case cmp == 0:
		c.ref = ref
	case cmp < 0:
		l := ixPut(n.left, key, ref) // a fresh copy: safe to relink
		if l.prio > c.prio {
			c.left, l.right = l.right, &c
			return l
		}
		c.left = l
	default:
		r := ixPut(n.right, key, ref)
		if r.prio > c.prio {
			c.right, r.left = r.left, &c
			return r
		}
		c.right = r
	}
	return &c
}

// ixDelete returns n without key.
func ixDelete(n *ixNode, key []byte) *ixNode {
	if n == nil {
		return nil
	}
	cmp := bytes.Compare(key, n.key)
	if cmp == 0 {
		return ixMerge(n.left, n.right)
	}
	c := *n
	if cmp < 0 {
		c.left = ixDelete(n.left, key)
	} else {
		c.right = ixDelete(n.right, key)
	}
	return &c
}

// ixMerge joins two treaps where every key of a orders before every
// key of b.
func ixMerge(a, b *ixNode) *ixNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		c := *a
		c.right = ixMerge(a.right, b)
		return &c
	}
	c := *b
	c.left = ixMerge(a, b.left)
	return &c
}

// ixIter visits a tree in ascending key order. The stack holds the
// nodes still to visit whose left subtrees are done, nearest last, so
// the top is the current node. A scan workspace keeps one per shard
// and reuses it, empty, at whatever capacity its deepest seek grew.
type ixIter struct {
	stack []*ixNode
}

// seek positions the iterator on the first key >= lo (nil lo: the
// smallest key).
func (it *ixIter) seek(root *ixNode, lo []byte) {
	for n := root; n != nil; {
		if lo == nil || bytes.Compare(n.key, lo) >= 0 {
			it.stack = append(it.stack, n)
			n = n.left
		} else {
			n = n.right
		}
	}
}

// node returns the current node, nil once the tree is exhausted.
func (it *ixIter) node() *ixNode {
	if len(it.stack) == 0 {
		return nil
	}
	return it.stack[len(it.stack)-1]
}

// inRange reports whether the iterator stands on a key below hi.
func (it *ixIter) inRange(hi []byte) bool {
	n := it.node()
	return n != nil && (hi == nil || bytes.Compare(n.key, hi) < 0)
}

// next advances to the in-order successor.
func (it *ixIter) next() {
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	for c := n.right; c != nil; c = c.left {
		it.stack = append(it.stack, c)
	}
}
