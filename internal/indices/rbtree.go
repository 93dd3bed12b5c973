package indices

import (
	"repro/internal/hooks"
	"repro/internal/pmemobj"
)

// rbtree is a persistent red-black tree following PMDK's rbtree_map:
// a sentinel node serves as NIL and a fake root node's left child
// holds the actual tree root, which makes rotations and transplants
// uniform (no nil special cases).
//
// Header object: {count u64, sentinel oid, fakeroot oid}.
// Node object:   {key u64, value u64, color u64, parent oid, left oid,
// right oid}.
type rbtree struct {
	c    *ctx
	hdr  pmemobj.Oid
	sent pmemobj.Oid // sentinel (NIL)
	root pmemobj.Oid // fake root; left child is the tree root
}

const (
	rbKey    = 0
	rbValue  = 8
	rbColor  = 16
	rbParent = 24

	rbBlack = 0
	rbRed   = 1
)

func (t *rbtree) leftOff() int64   { return rbParent + t.c.OidSize }
func (t *rbtree) rightOff() int64  { return rbParent + 2*t.c.OidSize }
func (t *rbtree) nodeSize() uint64 { return 24 + 3*uint64(t.c.OidSize) }
func (t *rbtree) hdrSize() uint64  { return 8 + 2*uint64(t.c.OidSize) }

func newRbtree(rt hooks.Runtime, slotOff uint64) (*rbtree, error) {
	c := newCtx(rt)
	t := &rbtree{c: c}
	hdr := c.Pool.ReadOid(slotOff)
	if hdr.IsNull() {
		if err := rt.AllocAt(slotOff, t.hdrSize()); err != nil {
			return nil, err
		}
		hdr = c.Pool.ReadOid(slotOff)
		t.hdr = hdr
		err := c.Run(func(tx *pmemobj.Tx) {
			sent, err := rt.TxAlloc(tx, t.nodeSize())
			if err != nil {
				c.Fail(err)
				return
			}
			fake, err := rt.TxAlloc(tx, t.nodeSize())
			if err != nil {
				c.Fail(err)
				return
			}
			// Sentinel: black, self-referential.
			sp := c.Direct(sent)
			c.Store(sp, rbColor, rbBlack)
			c.StoreOid(sp, rbParent, sent)
			c.StoreOid(sp, t.leftOff(), sent)
			c.StoreOid(sp, t.rightOff(), sent)
			// Fake root: black, children point at the sentinel.
			fp := c.Direct(fake)
			c.Store(fp, rbColor, rbBlack)
			c.StoreOid(fp, rbParent, sent)
			c.StoreOid(fp, t.leftOff(), sent)
			c.StoreOid(fp, t.rightOff(), sent)
			c.Snapshot(tx, hdr, t.hdrSize())
			hp := c.Direct(hdr)
			c.StoreOid(hp, 8, sent)
			c.StoreOid(hp, 8+c.OidSize, fake)
		})
		if err != nil {
			return nil, err
		}
	}
	t.hdr = hdr
	hp := c.Direct(hdr)
	t.sent = c.LoadOid(hp, 8)
	t.root = c.LoadOid(hp, 8+c.OidSize)
	if err := c.Take(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *rbtree) Name() string { return "rbtree" }

// Count implements Map.
func (t *rbtree) Count() (uint64, error) {
	n := t.c.Load(t.c.Direct(t.hdr), 0)
	return n, t.c.Take()
}

// opCtx tracks the nodes the current transaction has snapshotted so each
// is copied into the undo log once (past 32, its range dedup sees to it).
type opCtx struct {
	t       *rbtree
	tx      *pmemobj.Tx
	snapped [32]uint64 // node offsets, filled from the front
}

func (o *opCtx) snap(n pmemobj.Oid) {
	for i, off := range o.snapped {
		if off == n.Off {
			return
		}
		if off == 0 { // free slot: no object lives at offset 0
			o.snapped[i] = n.Off
			break
		}
	}
	o.t.c.Snapshot(o.tx, n, o.t.nodeSize())
}

// Field accessors. Loads go through the instrumented interface; stores
// snapshot the node first.

func (t *rbtree) key(n pmemobj.Oid) uint64   { return t.c.Load(t.c.Direct(n), rbKey) }
func (t *rbtree) value(n pmemobj.Oid) uint64 { return t.c.Load(t.c.Direct(n), rbValue) }
func (t *rbtree) color(n pmemobj.Oid) uint64 { return t.c.Load(t.c.Direct(n), rbColor) }
func (t *rbtree) parent(n pmemobj.Oid) pmemobj.Oid {
	return t.c.LoadOid(t.c.Direct(n), rbParent)
}
func (t *rbtree) left(n pmemobj.Oid) pmemobj.Oid {
	return t.c.LoadOid(t.c.Direct(n), t.leftOff())
}
func (t *rbtree) right(n pmemobj.Oid) pmemobj.Oid {
	return t.c.LoadOid(t.c.Direct(n), t.rightOff())
}

func (o *opCtx) setKey(n pmemobj.Oid, v uint64) {
	o.snap(n)
	o.t.c.Store(o.t.c.Direct(n), rbKey, v)
}
func (o *opCtx) setValue(n pmemobj.Oid, v uint64) {
	o.snap(n)
	o.t.c.Store(o.t.c.Direct(n), rbValue, v)
}
func (o *opCtx) setColor(n pmemobj.Oid, v uint64) {
	o.snap(n)
	o.t.c.Store(o.t.c.Direct(n), rbColor, v)
}
func (o *opCtx) setParent(n, v pmemobj.Oid) {
	o.snap(n)
	o.t.c.StoreOid(o.t.c.Direct(n), rbParent, v)
}
func (o *opCtx) setLeft(n, v pmemobj.Oid) {
	o.snap(n)
	o.t.c.StoreOid(o.t.c.Direct(n), o.t.leftOff(), v)
}
func (o *opCtx) setRight(n, v pmemobj.Oid) {
	o.snap(n)
	o.t.c.StoreOid(o.t.c.Direct(n), o.t.rightOff(), v)
}

// find returns the node with the given key, or the sentinel.
func (t *rbtree) find(key uint64) pmemobj.Oid {
	n := t.left(t.root)
	for n.Off != t.sent.Off && t.c.Err() == nil {
		k := t.key(n)
		switch {
		case key == k:
			return n
		case key < k:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	return t.sent
}

// Get implements Map.
func (t *rbtree) Get(key uint64) (uint64, bool, error) {
	n := t.find(key)
	if t.c.Err() == nil && n.Off != t.sent.Off {
		v := t.value(n)
		return v, true, t.c.Take()
	}
	return 0, false, t.c.Take()
}

func (o *opCtx) rotateLeft(x pmemobj.Oid) {
	t := o.t
	y := t.right(x)
	o.setRight(x, t.left(y))
	if l := t.left(y); l.Off != t.sent.Off {
		o.setParent(l, x)
	}
	xp := t.parent(x)
	o.setParent(y, xp)
	if t.left(xp).Off == x.Off {
		o.setLeft(xp, y)
	} else {
		o.setRight(xp, y)
	}
	o.setLeft(y, x)
	o.setParent(x, y)
}

func (o *opCtx) rotateRight(x pmemobj.Oid) {
	t := o.t
	y := t.left(x)
	o.setLeft(x, t.right(y))
	if r := t.right(y); r.Off != t.sent.Off {
		o.setParent(r, x)
	}
	xp := t.parent(x)
	o.setParent(y, xp)
	if t.left(xp).Off == x.Off {
		o.setLeft(xp, y)
	} else {
		o.setRight(xp, y)
	}
	o.setRight(y, x)
	o.setParent(x, y)
}

// Insert implements Map.
func (t *rbtree) Insert(key, value uint64) error {
	c := t.c
	return c.Run(func(tx *pmemobj.Tx) {
		o := &opCtx{t: t, tx: tx}

		// BST descent from the fake root.
		parent := t.root
		n := t.left(t.root)
		goLeft := true
		for n.Off != t.sent.Off && c.Err() == nil {
			k := t.key(n)
			if k == key {
				o.setValue(n, value)
				return
			}
			parent = n
			goLeft = key < k
			if goLeft {
				n = t.left(n)
			} else {
				n = t.right(n)
			}
		}
		if c.Err() != nil {
			return
		}

		fresh, err := c.RT.TxAlloc(tx, t.nodeSize())
		if err != nil {
			c.Fail(err)
			return
		}
		fp := c.Direct(fresh)
		c.Store(fp, rbKey, key)
		c.Store(fp, rbValue, value)
		c.Store(fp, rbColor, rbRed)
		c.StoreOid(fp, rbParent, parent)
		c.StoreOid(fp, t.leftOff(), t.sent)
		c.StoreOid(fp, t.rightOff(), t.sent)
		if goLeft {
			o.setLeft(parent, fresh)
		} else {
			o.setRight(parent, fresh)
		}

		t.insertFixup(o, fresh)

		c.Snapshot(tx, t.hdr, 8)
		hp := c.Direct(t.hdr)
		c.Store(hp, 0, c.Load(hp, 0)+1)
	})
}

func (t *rbtree) insertFixup(o *opCtx, z pmemobj.Oid) {
	c := t.c
	for c.Err() == nil {
		zp := t.parent(z)
		if zp.Off == t.root.Off || t.color(zp) == rbBlack {
			break
		}
		zpp := t.parent(zp)
		if t.left(zpp).Off == zp.Off {
			y := t.right(zpp) // uncle
			if t.color(y) == rbRed {
				o.setColor(zp, rbBlack)
				o.setColor(y, rbBlack)
				o.setColor(zpp, rbRed)
				z = zpp
				continue
			}
			if t.right(zp).Off == z.Off {
				z = zp
				o.rotateLeft(z)
				zp = t.parent(z)
				zpp = t.parent(zp)
			}
			o.setColor(zp, rbBlack)
			o.setColor(zpp, rbRed)
			o.rotateRight(zpp)
		} else {
			y := t.left(zpp)
			if t.color(y) == rbRed {
				o.setColor(zp, rbBlack)
				o.setColor(y, rbBlack)
				o.setColor(zpp, rbRed)
				z = zpp
				continue
			}
			if t.left(zp).Off == z.Off {
				z = zp
				o.rotateRight(z)
				zp = t.parent(z)
				zpp = t.parent(zp)
			}
			o.setColor(zp, rbBlack)
			o.setColor(zpp, rbRed)
			o.rotateLeft(zpp)
		}
	}
	if c.Err() == nil {
		root := t.left(t.root)
		if root.Off != t.sent.Off && t.color(root) != rbBlack {
			o.setColor(root, rbBlack)
		}
	}
}

// Remove implements Map.
func (t *rbtree) Remove(key uint64) (bool, error) {
	c := t.c
	removed := false
	err := c.Run(func(tx *pmemobj.Tx) {
		z := t.find(key)
		if c.Err() != nil || z.Off == t.sent.Off {
			return
		}
		removed = true
		o := &opCtx{t: t, tx: tx}

		// y is the node physically removed; x replaces it.
		y := z
		if t.left(z).Off != t.sent.Off && t.right(z).Off != t.sent.Off {
			// Two children: take the successor.
			y = t.right(z)
			for t.left(y).Off != t.sent.Off && c.Err() == nil {
				y = t.left(y)
			}
		}
		var x pmemobj.Oid
		if t.left(y).Off != t.sent.Off {
			x = t.left(y)
		} else {
			x = t.right(y)
		}
		yp := t.parent(y)
		o.setParent(x, yp) // sentinel's parent is legal scratch state
		if t.left(yp).Off == y.Off {
			o.setLeft(yp, x)
		} else {
			o.setRight(yp, x)
		}
		if y.Off != z.Off {
			o.setKey(z, t.key(y))
			o.setValue(z, t.value(y))
		}
		if t.color(y) == rbBlack {
			t.deleteFixup(o, x)
		}
		if c.Err() == nil {
			if err := c.RT.TxFree(tx, y); err != nil {
				c.Fail(err)
				return
			}
		}
		c.Snapshot(tx, t.hdr, 8)
		hp := c.Direct(t.hdr)
		c.Store(hp, 0, c.Load(hp, 0)-1)
	})
	return removed, err
}

func (t *rbtree) deleteFixup(o *opCtx, x pmemobj.Oid) {
	c := t.c
	for c.Err() == nil {
		root := t.left(t.root)
		if x.Off == root.Off || t.color(x) == rbRed {
			break
		}
		xp := t.parent(x)
		if t.left(xp).Off == x.Off {
			w := t.right(xp)
			if t.color(w) == rbRed {
				o.setColor(w, rbBlack)
				o.setColor(xp, rbRed)
				o.rotateLeft(xp)
				xp = t.parent(x)
				w = t.right(xp)
			}
			if t.color(t.left(w)) == rbBlack && t.color(t.right(w)) == rbBlack {
				o.setColor(w, rbRed)
				x = xp
				continue
			}
			if t.color(t.right(w)) == rbBlack {
				o.setColor(t.left(w), rbBlack)
				o.setColor(w, rbRed)
				o.rotateRight(w)
				xp = t.parent(x)
				w = t.right(xp)
			}
			o.setColor(w, t.color(xp))
			o.setColor(xp, rbBlack)
			o.setColor(t.right(w), rbBlack)
			o.rotateLeft(xp)
			break
		}
		w := t.left(xp)
		if t.color(w) == rbRed {
			o.setColor(w, rbBlack)
			o.setColor(xp, rbRed)
			o.rotateRight(xp)
			xp = t.parent(x)
			w = t.left(xp)
		}
		if t.color(t.right(w)) == rbBlack && t.color(t.left(w)) == rbBlack {
			o.setColor(w, rbRed)
			x = xp
			continue
		}
		if t.color(t.left(w)) == rbBlack {
			o.setColor(t.right(w), rbBlack)
			o.setColor(w, rbRed)
			o.rotateLeft(w)
			xp = t.parent(x)
			w = t.left(xp)
		}
		o.setColor(w, t.color(xp))
		o.setColor(xp, rbBlack)
		o.setColor(t.left(w), rbBlack)
		o.rotateRight(xp)
		break
	}
	if c.Err() == nil {
		o.setColor(x, rbBlack)
	}
}
