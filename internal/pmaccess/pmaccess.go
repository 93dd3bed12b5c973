// Package pmaccess provides a sticky-error accessor over the
// instrumented PM interface. Application code (indices, the KV store,
// the Phoenix kernels) uses it to express pointer-chasing persistent
// data structures naturally: the first fault or sanitizer violation is
// recorded, subsequent operations become no-ops, and the error
// surfaces once at the operation boundary.
package pmaccess

import (
	"fmt"

	"repro/internal/hooks"
	"repro/internal/pmemobj"
	"repro/internal/trace"
)

// Ctx is the accessor. It is single-goroutine; create one per
// operation (or per exclusively-owned structure).
type Ctx struct {
	RT      hooks.Runtime
	Pool    *pmemobj.Pool
	SPP     bool
	Packed  bool
	OidSize int64

	// Trace, when set, is the sampled request this operation serves;
	// Run hands it to the transaction so the commit pipeline reports
	// per-stage durations against it.
	Trace *trace.Req

	err error
}

// New returns an accessor bound to the runtime.
func New(rt hooks.Runtime) *Ctx {
	pool := rt.Pool()
	return &Ctx{
		RT: rt, Pool: pool, SPP: pool.SPP(), Packed: pool.PackedOid(),
		OidSize: int64(pool.OidPersistedSize()),
	}
}

// Fail records err if no earlier error is pending.
func (c *Ctx) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the pending error without clearing it.
func (c *Ctx) Err() error { return c.err }

// Take returns and clears the pending error.
func (c *Ctx) Take() error {
	err := c.err
	c.err = nil
	return err
}

// Load reads a u64 field at p+off through the bounds check.
func (c *Ctx) Load(p uint64, off int64) uint64 {
	if c.err != nil {
		return 0
	}
	v, err := hooks.LoadU64(c.RT, c.RT.Gep(p, off))
	if err != nil {
		c.Fail(err)
		return 0
	}
	return v
}

// Store writes a u64 field at p+off through the bounds check.
func (c *Ctx) Store(p uint64, off int64, v uint64) {
	if c.err != nil {
		return
	}
	if err := hooks.StoreU64(c.RT, c.RT.Gep(p, off), v); err != nil {
		c.Fail(err)
	}
}

// AppendBytes reads n bytes at p+off through a memory-intrinsic check
// and appends them to dst. With an error pending, or when the access
// fails, dst comes back unchanged.
func (c *Ctx) AppendBytes(dst []byte, p uint64, off int64, n uint64) []byte {
	if c.err != nil {
		return dst
	}
	b, err := hooks.AppendBytes(c.RT, dst, c.RT.Gep(p, off), n)
	if err != nil {
		c.Fail(err)
	}
	return b
}

// LoadBytes reads n bytes at p+off through a memory-intrinsic check
// into a fresh slice.
func (c *Ctx) LoadBytes(p uint64, off int64, n uint64) []byte {
	return c.AppendBytes(nil, p, off, n)
}

// StoreBytes writes b at p+off through a memory-intrinsic check.
func (c *Ctx) StoreBytes(p uint64, off int64, b []byte) {
	if c.err != nil {
		return
	}
	if err := hooks.StoreBytes(c.RT, c.RT.Gep(p, off), b); err != nil {
		c.Fail(err)
	}
}

// LoadOid reads a persisted oid embedded at p+off with a single
// bounds check covering the whole field — the bound-check preemption
// pattern (§IV-E): consecutive accesses to one small structure share
// one check and then use the masked pointer.
func (c *Ctx) LoadOid(p uint64, off int64) pmemobj.Oid {
	if c.err != nil {
		return pmemobj.OidNull
	}
	a, err := c.RT.Check(c.RT.Gep(p, off), uint64(c.OidSize))
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	as := c.RT.Space()
	oid := pmemobj.Oid{}
	if oid.Pool, err = as.LoadU64(a); err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	if oid.Off, err = as.LoadU64(a + 8); err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	if c.Packed {
		oid.Off, oid.Size = c.Pool.UnpackOff(oid.Off)
	} else if c.SPP {
		if oid.Size, err = as.LoadU64(a + 16); err != nil {
			c.Fail(err)
			return pmemobj.OidNull
		}
	}
	return oid
}

// StoreOid writes a persisted oid at p+off under one merged bounds
// check, size field first (SPP's size-before-offset ordering for
// manual oid updates, §IV-F).
func (c *Ctx) StoreOid(p uint64, off int64, oid pmemobj.Oid) {
	if c.err != nil {
		return
	}
	a, err := c.RT.Check(c.RT.Gep(p, off), uint64(c.OidSize))
	if err != nil {
		c.Fail(err)
		return
	}
	as := c.RT.Space()
	if c.Packed {
		if err := as.StoreU64(a, oid.Pool); err != nil {
			c.Fail(err)
			return
		}
		if err := as.StoreU64(a+8, c.Pool.PackOff(oid.Off, oid.Size)); err != nil {
			c.Fail(err)
		}
		return
	}
	if c.SPP {
		if err := as.StoreU64(a+16, oid.Size); err != nil {
			c.Fail(err)
			return
		}
	}
	if err := as.StoreU64(a, oid.Pool); err != nil {
		c.Fail(err)
		return
	}
	if err := as.StoreU64(a+8, oid.Off); err != nil {
		c.Fail(err)
	}
}

// Direct converts an oid to a pointer.
func (c *Ctx) Direct(oid pmemobj.Oid) uint64 { return c.RT.Direct(oid) }

// Snapshot adds an object's whole range to the transaction undo log.
func (c *Ctx) Snapshot(tx *pmemobj.Tx, oid pmemobj.Oid, size uint64) {
	if c.err != nil {
		return
	}
	if err := tx.AddRange(oid.Off, size); err != nil {
		c.Fail(err)
	}
}

// SnapshotField adds a single embedded field to the undo log.
func (c *Ctx) SnapshotField(tx *pmemobj.Tx, oid pmemobj.Oid, fieldOff int64, size uint64) {
	if c.err != nil {
		return
	}
	if err := tx.AddRange(oid.Off+uint64(fieldOff), size); err != nil {
		c.Fail(err)
	}
}

// Run executes fn inside a transaction, committing on success and
// aborting when an error is pending.
func (c *Ctx) Run(fn func(tx *pmemobj.Tx)) error {
	tx := c.Pool.BeginTraced(c.Trace)
	fn(tx)
	if err := c.Take(); err != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
		}
		return err
	}
	return tx.Commit()
}
