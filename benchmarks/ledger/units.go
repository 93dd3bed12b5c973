package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/kvstore"
	"repro/internal/pmaccess"
	"repro/internal/pmem"
	"repro/internal/pmemobj"
	"repro/internal/variant"
	"repro/internal/vmem"
)

// Unit rows: each layer's exported functions timed in isolation at
// fixed iteration counts, from outside the layer. They run in every
// traced invocation, whatever the workload.

// sink keeps the compiler from discarding a timed call's result.
var sink uint64

const unitReps = 5

// unitNS times body(n) unitReps times and returns the median ns per
// iteration. body contains its own loop, so no per-iteration closure
// call is in the measurement.
func unitNS(n int, body func(n int)) value {
	xs := make([]float64, unitReps)
	for i := range xs {
		t0 := time.Now()
		body(n)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return medianOf(xs)
}

// stopwatchNS times only the part of each iteration between the
// returned start and stop calls, for calls that need untimed set-up.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }

func stopwatchNS(n int, body func(n int, s *stopwatch) error) (value, error) {
	xs := make([]float64, unitReps)
	for i := range xs {
		var s stopwatch
		if err := body(n, &s); err != nil {
			return value{}, err
		}
		xs[i] = float64(s.total.Nanoseconds()) / float64(n)
	}
	return medianOf(xs), nil
}

const unitPoolSize = 16 << 20

// unitEnv is a small environment with one 4-KiB object to aim at.
type unitEnv struct {
	env *variant.Env
	oid pmemobj.Oid
	p   uint64
}

func newUnitEnv(kind variant.Kind) (*unitEnv, error) {
	env, err := variant.New(kind, variant.Options{PoolSize: unitPoolSize})
	if err != nil {
		return nil, err
	}
	oid, err := env.RT.Alloc(4096)
	if err != nil {
		return nil, err
	}
	return &unitEnv{env: env, oid: oid, p: env.RT.Direct(oid)}, nil
}

// unitRows caches measureUnits per div: the rows do not depend on the
// workload, and a full -traced run would otherwise measure them (and
// fill a 256 MB SafePM pool for the canary) once per workload.
var unitRows = map[int]map[string]value{}

// runUnits fills m with every unit row; div scales the iteration
// counts down for the smoke test.
func runUnits(m map[string]value, div int) error {
	rows, ok := unitRows[div]
	if !ok {
		rows = map[string]value{}
		if err := measureUnits(rows, div); err != nil {
			return err
		}
		unitRows[div] = rows
	}
	for name, v := range rows {
		m[name] = v
	}
	return nil
}

func measureUnits(m map[string]value, div int) error {
	envs := map[variant.Kind]*unitEnv{}
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM} {
		e, err := newUnitEnv(kind)
		if err != nil {
			return fmt.Errorf("unit env %s: %w", kind, err)
		}
		envs[kind] = e
	}
	hot := 2_000_000 / div

	// hooks / core
	for kind, e := range envs {
		rt, p := e.env.RT, e.p
		m["hooks.check_ns."+string(kind)] = unitNS(hot, func(n int) {
			for i := 0; i < n; i++ {
				a, _ := rt.Check(p, 8)
				sink += a
			}
		})
	}
	spp := envs[variant.SPP]
	m["hooks.gep_ns.spp"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			sink += spp.env.RT.Gep(spp.p, 8)
		}
	})
	m["hooks.memintr_ns.spp"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			a, _ := spp.env.RT.MemIntr(spp.p, 64)
			sink += a
		}
	})
	enc := spp.env.Pool.Encoding()
	m["core.checkbound_ns"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			sink += enc.CheckBound(spp.p, 8)
		}
	})
	m["core.updatetag_ns"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			sink += enc.UpdateTag(spp.p, 8)
		}
	})

	// pmaccess
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP} {
		e := envs[kind]
		c := pmaccess.New(e.env.RT)
		c.StoreOid(e.p, 64, e.oid)
		m["pmaccess.load_ns."+string(kind)] = unitNS(hot, func(n int) {
			for i := 0; i < n; i++ {
				sink += c.Load(e.p, 8)
			}
		})
		m["pmaccess.store_ns."+string(kind)] = unitNS(hot, func(n int) {
			for i := 0; i < n; i++ {
				c.Store(e.p, 8, uint64(i))
			}
		})
		m["pmaccess.load_oid_ns."+string(kind)] = unitNS(hot, func(n int) {
			for i := 0; i < n; i++ {
				sink += c.LoadOid(e.p, 64).Off
			}
		})
		if err := c.Take(); err != nil {
			return fmt.Errorf("pmaccess units (%s): %w", kind, err)
		}
	}

	// vmem: the native environment's pointers are plain addresses.
	native := envs[variant.PMDK]
	as, addr := native.env.AS, native.p
	m["vmem.load_u64_ns"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := as.LoadU64(addr)
			sink += v
		}
	})
	m["vmem.store_u64_ns"] = unitNS(hot, func(n int) {
		for i := 0; i < n; i++ {
			_ = as.StoreU64(addr, uint64(i)) // the address is mapped; a fault would show in load_u64 too
		}
	})
	m["vmem.load_bytes_1k_ns"] = unitNS(hot/10, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := as.LoadBytes(addr, 1024)
			sink += uint64(len(b))
		}
	})

	if err := pmemobjUnits(m, spp, div); err != nil {
		return err
	}
	pmemUnits(m, div)
	return safepmCanary(m, div)
}

func pmemobjUnits(m map[string]value, e *unitEnv, div int) error {
	pool := e.env.Pool
	n := max(40, 2000/div)
	var err error
	for _, size := range []struct {
		label string
		bytes uint64
	}{{"128", 128}, {"1k", 1024}} {
		oids := make([]pmemobj.Oid, n)
		var allocs, frees []float64
		for rep := 0; rep < unitReps; rep++ {
			t0 := time.Now()
			for i := range oids {
				if oids[i], err = pool.Alloc(size.bytes); err != nil {
					return fmt.Errorf("pmemobj alloc unit: %w", err)
				}
			}
			allocs = append(allocs, float64(time.Since(t0).Nanoseconds())/float64(n))
			t0 = time.Now()
			for i := range oids {
				if err = pool.Free(oids[i]); err != nil {
					return fmt.Errorf("pmemobj free unit: %w", err)
				}
			}
			frees = append(frees, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
		m["pmemobj.alloc_ns."+size.label] = medianOf(allocs)
		m["pmemobj.free_ns."+size.label] = medianOf(frees)
	}

	if m["pmemobj.tx_begin_ns"], err = stopwatchNS(n, func(n int, s *stopwatch) error {
		for i := 0; i < n; i++ {
			s.start()
			tx := pool.Begin()
			s.stop()
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("pmemobj tx_begin unit: %w", err)
	}
	for _, ranges := range []int{1, 4, 16} {
		name := fmt.Sprintf("pmemobj.tx_commit_ns.%dr", ranges)
		if m[name], err = stopwatchNS(n, func(n int, s *stopwatch) error {
			for i := 0; i < n; i++ {
				tx := pool.Begin()
				for r := 0; r < ranges; r++ {
					off := e.oid.Off + uint64(r)*128
					if err := tx.AddRange(off, 64); err != nil {
						return err
					}
					pool.Device().WriteU64(off, uint64(i))
				}
				s.start()
				err := tx.Commit()
				s.stop()
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("%s unit: %w", name, err)
		}
	}
	if m["pmemobj.tx_alloc_ns.1k"], err = stopwatchNS(n/4, func(n int, s *stopwatch) error {
		for i := 0; i < n; i++ {
			tx := pool.Begin()
			s.start()
			oid, err := tx.Alloc(1024)
			s.stop()
			if err != nil {
				return err
			}
			if err := tx.Free(oid); err != nil {
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("pmemobj tx_alloc unit: %w", err)
	}

	// open_ns: recovery + heap rebuild on a crashed image.
	d, err := setupDurable(scale{keys: max(200, keySpace/10/div)}, 1, engine.Knobs{})
	if err != nil {
		return fmt.Errorf("pmemobj open unit: %w", err)
	}
	if err := d.dev.Crash(); err != nil {
		return err
	}
	if m["pmemobj.open_ns"], err = stopwatchNS(1, func(_ int, s *stopwatch) error {
		s.start()
		_, err := pmemobj.OpenConfig(d.dev, vmem.New(), variant.DefaultBase, pmemobj.Config{})
		s.stop()
		return err
	}); err != nil {
		return fmt.Errorf("pmemobj open unit: %w", err)
	}
	return nil
}

func pmemUnits(m map[string]value, div int) {
	const size = 4 << 20
	n := 20000 / div
	lines := uint64(size / pmem.CachelineSize)
	fast := pmem.NewPool("unit-fast", size)
	m["pmem.write_u64_ns.fast"] = unitNS(10*n, func(n int) {
		for i := 0; i < n; i++ {
			fast.WriteU64(uint64(i)%lines*pmem.CachelineSize, uint64(i))
		}
	})
	dev := pmem.NewPool("unit-tracked", size)
	dev.EnableTracking(nil)
	m["pmem.write_u64_ns.tracked"] = unitNS(n, func(n int) {
		for i := 0; i < n; i++ {
			dev.WriteU64(uint64(i)%lines*pmem.CachelineSize, uint64(i))
		}
	})
	m["pmem.flush_ns.tracked"] = unitNS(n, func(n int) {
		for i := 0; i < n; i++ {
			dev.Flush(uint64(i)%lines*pmem.CachelineSize, 8)
		}
		dev.Fence() // retire the pending lines so the next repetition starts empty
	})
	m["pmem.fence_ns.tracked"], _ = stopwatchNS(n, func(n int, s *stopwatch) error {
		for i := 0; i < n; i++ {
			off := uint64(i) % lines * pmem.CachelineSize
			dev.WriteU64(off, uint64(i))
			dev.Flush(off, 8)
			s.start()
			dev.Fence()
			s.stop()
		}
		return nil
	})
}

// safepmCanary pins a product defect found while sizing the benchmark:
// a SafePM pool cannot take a 20000-key preload of 1-KiB values on the
// MVCC store (redo log extension fails with the pool mostly free). The
// canary counts the Puts that succeed; it reads 20000 once fixed.
func safepmCanary(m map[string]value, div int) error {
	env, err := variant.New(variant.SafePM, variant.Options{PoolSize: uint64(max(32<<20, (256<<20)/div))})
	if err != nil {
		return err
	}
	st, err := kvstore.Open(env.RT)
	if err != nil {
		return err
	}
	kbuf, vbuf := make([]byte, keyLen), make([]byte, 1024)
	ok := 0
	for ; ok < keySpace/div; ok++ {
		key := putKey(kbuf, ok)
		fillValue(vbuf, key, 0, 1)
		if err := st.Put(key, vbuf); err != nil {
			if hooks.IsSafetyTrap(err) {
				return fmt.Errorf("safepm canary: unexpected trap: %w", err)
			}
			logf("safepm canary: Put %d failed: %v", ok, err)
			break
		}
	}
	m["kvstore.safepm_preload_puts_ok"] = single(float64(ok))
	return nil
}
