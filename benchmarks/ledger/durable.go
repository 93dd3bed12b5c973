package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/variant"
)

// durable_write: only a tracked device makes Flush and Fence do real
// work, and only Crash() discards what was not flushed and fenced. One
// goroutine, so every Put before the crash was acknowledged and must
// be readable after recovery.
const (
	durableValueSize = 256
	// A crash cycle is about half a second of Puts, and never fewer
	// than eleven cycles make a run.
	durableCycleLen  = 450 * time.Millisecond
	durableMinCycles = 11
)

type durableEnv struct {
	dev   *pmem.Pool
	env   *variant.Env
	store *kvstore.Store
	// model[k] is the version of the last acknowledged Put of key k.
	model []uint64
	knobs engine.Knobs
}

func (e *durableEnv) options() variant.Options {
	return variant.Options{PoolSize: e.dev.Size(), Knobs: e.knobs}
}

func setupDurable(sc scale, seed uint64, knobs engine.Knobs) (*durableEnv, error) {
	e := &durableEnv{dev: pmem.NewPool("durable", sc.poolSize()), model: make([]uint64, sc.keys), knobs: knobs}
	var err error
	if e.env, err = variant.Format(variant.SPP, e.dev, e.options()); err != nil {
		return nil, err
	}
	if e.store, err = kvstore.Open(e.env.RT); err != nil {
		return nil, err
	}
	e.dev.EnableTracking(nil)
	kbuf, vbuf := make([]byte, keyLen), make([]byte, durableValueSize)
	for k := 0; k < sc.keys; k++ {
		key := putKey(kbuf, k)
		fillValue(vbuf, key, 0, seed)
		if err := e.store.Put(key, vbuf); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return e, nil
}

// crashAndRecover discards every unflushed byte, reopens the pool
// through recovery and the store on top, and returns how long the
// reopening took. Crash itself is the simulator copying the durable
// image over the working one — the power failure, not the recovery —
// so the clock starts after it.
func (e *durableEnv) crashAndRecover() (time.Duration, error) {
	if err := e.dev.Crash(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	env, err := variant.AdoptConfig(variant.SPP, e.dev, e.options())
	if err != nil {
		return 0, fmt.Errorf("recover pool: %w", err)
	}
	st, err := kvstore.Open(env.RT)
	if err != nil {
		return 0, fmt.Errorf("recover store: %w", err)
	}
	e.env, e.store = env, st
	return time.Since(t0), nil
}

// verify reads keys back and compares them with the model: the keys
// written since the last crash (touched), or every key when touched is
// nil.
func (e *durableEnv) verify(seed uint64, touched []int, r *result) {
	kbuf := make([]byte, keyLen)
	check := func(k int) {
		want := e.model[k]
		key := putKey(kbuf, k)
		v, ok, err := e.store.Get(key)
		if err != nil || !ok {
			r.fail("after recovery: key %s ok=%v err=%v", key, ok, err)
			return
		}
		if got, good := checkValue(v, key, durableValueSize, seed); !good || got != want {
			r.fail("after recovery: key %s has version %#x, acknowledged %#x", key, got, want)
		}
	}
	if touched == nil {
		for k := range e.model {
			check(k)
		}
		return
	}
	for _, k := range touched {
		check(k)
	}
}

func runDurable(sc scale, seed uint64) (*result, error) {
	r := newResult(wDurableWrite)
	e, err := timedSetup(r, sc.setupReps,
		func() (*durableEnv, error) { return setupDurable(sc, seed, engine.Knobs{}) },
		func(*durableEnv) {})
	if err != nil {
		return nil, err
	}
	cycles := sc.windows
	var window time.Duration
	if sc.dur > 0 {
		cycles = max(durableMinCycles, int(sc.dur/durableCycleLen))
		window = sc.dur / time.Duration(cycles)
	}
	gen := newRNG(seed, 1)
	kbuf, vbuf := make([]byte, keyLen), make([]byte, durableValueSize)
	putMix := mix{put: 100}
	var version uint64
	var rates, recoverMS []float64
	var allocBytes uint64
	var touched []int
	for c := 0; c <= cycles; c++ { // cycle 0 is the discarded warm-up
		var puts int64
		touched = touched[:0]
		meter := startAllocMeter() // put phases only: recovery and verification are not ops
		t0 := time.Now()
		for {
			if sc.dur == 0 {
				if puts == int64(sc.ops) {
					break
				}
			} else if puts%16 == 0 && time.Since(t0) >= window {
				break
			}
			o := gen.nextOp(putMix, sc.keys)
			key := putKey(kbuf, o.key)
			version++
			fillValue(vbuf, key, version, seed)
			if err := e.store.Put(key, vbuf); err != nil {
				r.fail("put %s: %v", key, err)
			} else {
				e.model[o.key] = version
				touched = append(touched, o.key)
			}
			puts++
		}
		rate := float64(puts) / time.Since(t0).Seconds()
		allocBytes += meter.bytes()
		r.Attempted += puts
		took, err := e.crashAndRecover()
		if err != nil {
			return nil, err
		}
		// Every Put acknowledged in this cycle is checked right after
		// the crash that follows it; the whole key space once more at
		// the end.
		e.verify(seed, touched, r)
		if c > 0 {
			rates = append(rates, rate)
			recoverMS = append(recoverMS, float64(took.Nanoseconds())/1e6)
		}
	}
	r.Metrics["go_alloc_bytes_per_op"] = single(float64(allocBytes) / float64(max(r.Attempted, 1)))
	r.Metrics["ops_per_s"] = quartileOf(rates, "higher")
	r.Metrics["recover_ms"] = quartileOf(recoverMS, "lower")
	e.verify(seed, nil, r)
	if r.Metrics["space_amp"], err = storeSpaceAmp(e.env, e.store); err != nil {
		return nil, err
	}
	return r, nil
}
