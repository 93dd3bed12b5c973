package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/variant"
	"repro/internal/wire"
)

// The serve_* workloads: an in-process server on a loopback socket,
// closed loop. repro/client is strictly request/response per
// connection, so callers that wait for a reply are the real traffic;
// with nproc = 2 the load is at most two connections.
const (
	serveConns  = 2
	serveTenant = "bench"
	scanSpan    = 32
)

type serveSpec struct {
	name      string
	mix       mix
	valueSize int
	// spaceAmp asks for the pool occupancy at the end of the run.
	spaceAmp bool
}

var serveSpecs = map[string]serveSpec{
	wServeRead:  {name: wServeRead, mix: mix{get: 95, put: 5}, valueSize: 256},
	wServeWrite: {name: wServeWrite, mix: mix{get: 20, put: 60, del: 20}, valueSize: 1024, spaceAmp: true},
	wServeScan:  {name: wServeScan, mix: mix{put: 10, scan: 90}, valueSize: 256},
}

// serveEnv is a started server with its tenant preloaded.
type serveEnv struct {
	srv  *server.Server
	addr string
	// dev is the tenant's device, captured through Config.OpenDevice so
	// the pool can be inspected after the server closes.
	dev *pmem.Pool
}

func (e *serveEnv) close() {
	if e != nil && e.srv != nil {
		_ = e.srv.Close() // shutdown errors do not change a measurement already taken
	}
}

// setupServe starts the server exactly as sppserver would (protection
// spp, default admission window, no emulated op cost) and preloads
// keys [0, sc.keys) over the wire.
func setupServe(spec serveSpec, sc scale, seed uint64, knobs engine.Knobs) (*serveEnv, error) {
	env := &serveEnv{}
	srv, err := server.New(server.Config{
		Protection: "spp",
		PoolSize:   sc.poolSize(),
		Knobs:      knobs,
		OpenDevice: func(tenant string) (*pmem.Pool, bool, error) {
			env.dev = pmem.NewPool("tenant:"+tenant, sc.poolSize())
			return env.dev, true, nil
		},
	})
	if err != nil {
		return nil, err
	}
	env.srv = srv
	if env.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(env.addr, serveTenant)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			kbuf, vbuf := make([]byte, keyLen), make([]byte, spec.valueSize)
			for i := c; i < sc.keys; i += serveConns {
				key := putKey(kbuf, i)
				fillValue(vbuf, key, 0, seed)
				if err := cl.Put(key, vbuf); err != nil {
					errs[c] = fmt.Errorf("preload key %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// serveWorker is one load-generating caller. Its generator state
// lives across windows; its connection does not.
type serveWorker struct {
	gen               rng
	version           uint64
	kbuf, hibuf, vbuf []byte
	lat               [numOpKinds][]time.Duration
	ops               int64
	res               *result // failures only; merged by the caller
}

func newServeWorker(spec serveSpec, seed uint64, c int) serveWorker {
	return serveWorker{
		gen: newRNG(seed, uint64(c+1)), version: uint64(c+1) << 56, res: newResult(spec.name),
		kbuf: make([]byte, keyLen), hibuf: make([]byte, keyLen), vbuf: make([]byte, spec.valueSize),
	}
}

// do issues one op and verifies the reply. It returns the op's
// latency; verification happens after the clock stops.
func (w *serveWorker) do(cl *client.Client, spec serveSpec, sc scale, seed uint64, o op) time.Duration {
	res := w.res
	w.version++
	key := putKey(w.kbuf, o.key)
	var d time.Duration
	var err error
	switch o.kind {
	case opGet:
		t0 := time.Now()
		v, ok, gerr := cl.Get(key)
		d, err = time.Since(t0), gerr
		if err != nil {
			break
		}
		if !ok {
			// Only a mix that deletes may miss.
			if spec.mix.del == 0 {
				res.fail("get %s: missing", key)
			}
		} else if _, good := checkValue(v, key, spec.valueSize, seed); !good {
			res.fail("get %s: wrong value (%d bytes)", key, len(v))
		}
	case opPut:
		fillValue(w.vbuf, key, w.version, seed)
		t0 := time.Now()
		err = cl.Put(key, w.vbuf)
		d = time.Since(t0)
	case opDelete:
		t0 := time.Now()
		_, err = cl.Delete(key)
		d = time.Since(t0)
	case opScan:
		hi := putKey(w.hibuf, o.key+scanSpan)
		t0 := time.Now()
		kvs, serr := cl.Scan(key, hi, scanSpan)
		d, err = time.Since(t0), serr
		if err == nil {
			checkScan(kvs, key, hi, min(scanSpan, sc.keys-o.key), spec, seed, res)
		}
	}
	if err != nil {
		// Transport and server errors and shed requests all count as
		// failed ops (baseline: none).
		res.fail("%s %s: %v", opNames[o.kind], key, err)
	}
	return d
}

// checkScan verifies order, bounds, limit and — because no scan mix
// deletes — the exact row count, and every value.
func checkScan(kvs []wire.KV, lo, hi []byte, want int, spec serveSpec, seed uint64, res *result) {
	if len(kvs) > scanSpan || (spec.mix.del == 0 && len(kvs) != want) {
		res.fail("scan %s: %d rows, want %d", lo, len(kvs), want)
		return
	}
	prev := ""
	for _, kv := range kvs {
		k := string(kv.Key)
		if k <= prev || k < string(lo) || k >= string(hi) {
			res.fail("scan %s: key %s out of order or range", lo, k)
			return
		}
		prev = k
		if _, good := checkValue(kv.Value, kv.Key, spec.valueSize, seed); !good {
			res.fail("scan %s: wrong value for %s", lo, k)
			return
		}
	}
}

// serveWindow runs one window: every worker dials a fresh connection,
// issues ops back to back until the window's budget is spent (dur when
// positive, else ops per worker), and hangs up. It returns the ops
// completed and the wall time; latencies are appended to each worker's
// lat.
//
// A fresh connection per window is deliberate. With two callers on two
// cores, where the scheduler happens to place a caller and its server
// handler decides the round-trip time, and a placement persists for as
// long as the connection does: one run on one pair of connections
// measures one placement, and runs differ by +-10%. Reconnecting every
// window samples many placements per run, and the median over windows
// settles.
func serveWindow(env *serveEnv, spec serveSpec, sc scale, seed uint64, workers []serveWorker, dur time.Duration, ops int) (int64, time.Duration, error) {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range workers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &workers[c]
			cl, err := client.Dial(env.addr, serveTenant)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			for n := 0; ; n++ {
				if dur > 0 {
					if time.Since(start) >= dur {
						return
					}
				} else if n == ops {
					return
				}
				o := w.gen.nextOp(spec.mix, sc.keys)
				d := w.do(cl, spec, sc, seed, o)
				w.ops++
				w.lat[o.kind] = append(w.lat[o.kind], d)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var n int64
	for c := range workers {
		n += workers[c].ops
		workers[c].ops = 0
	}
	return n, elapsed, errors.Join(errs...)
}

// runServePhase drives the closed loop and fills r with throughput and
// latency metrics: one discarded warm-up window, then the measured
// windows — windowCount(sc.dur) of them, or sc.windows windows of a
// fixed op count when the phase is op-bounded. Percentiles are exact,
// over the pooled samples of all measured windows.
func runServePhase(env *serveEnv, spec serveSpec, sc scale, seed uint64, r *result) error {
	windows, windowOps := sc.windows, 0
	var windowDur time.Duration
	if sc.dur > 0 {
		windows = windowCount(sc.dur)
		windowDur = sc.dur / time.Duration(windows)
	} else {
		windowOps = sc.ops / (windows * serveConns)
	}
	workers := make([]serveWorker, serveConns)
	for c := range workers {
		workers[c] = newServeWorker(spec, seed, c)
		for k := range workers[c].lat {
			workers[c].lat[k] = make([]time.Duration, 0, 1<<14)
		}
	}
	var pooled [numOpKinds][]time.Duration
	var rates []float64
	var ops int64
	meter := startAllocMeter()
	for w := 0; w <= windows; w++ { // window 0 is the discarded warm-up
		n, elapsed, err := serveWindow(env, spec, sc, seed, workers, windowDur, windowOps)
		if err != nil {
			return err
		}
		ops += n
		for c := range workers {
			for k := range pooled {
				if w > 0 {
					pooled[k] = append(pooled[k], workers[c].lat[k]...)
				}
				workers[c].lat[k] = workers[c].lat[k][:0]
			}
		}
		if w > 0 {
			rates = append(rates, float64(n)/elapsed.Seconds())
		}
	}
	for c := range workers {
		r.Failed += workers[c].res.Failed
		r.Notes = append(r.Notes, workers[c].res.Notes...)
	}
	r.Attempted += ops
	r.Metrics["go_alloc_bytes_per_op"] = meter.bytesPerOp(ops)
	r.Metrics["ops_per_s"] = quartileOf(rates, "higher")
	for k := range pooled {
		if len(pooled[k]) == 0 {
			continue
		}
		sortDurations(pooled[k])
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			name := fmt.Sprintf("%s_%s_us", opNames[k], q.name)
			if m, ok := e2eByName(name); ok && m.homeOn(spec.name) {
				r.Metrics[name] = percentile(pooled[k], q.q)
			}
		}
	}
	return nil
}

// spaceAmp adopts a closed tenant's device image and reports
// AllocatedBytes over live user bytes. Adoption drains the MVCC retire
// chains, so versions awaiting reclaim are not counted: the figure is
// the steady-state footprint.
func spaceAmp(dev *pmem.Pool, kind variant.Kind) (value, error) {
	env, err := variant.AdoptConfig(kind, dev, variant.Options{PoolSize: dev.Size()})
	if err != nil {
		return value{}, err
	}
	st, err := kvstore.Open(env.RT)
	if err != nil {
		return value{}, err
	}
	return storeSpaceAmp(env, st)
}

func storeSpaceAmp(env *variant.Env, st *kvstore.Store) (value, error) {
	var live uint64
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		live += uint64(len(k) + len(v))
		return true
	}); err != nil {
		return value{}, err
	}
	if live == 0 {
		return value{}, errors.New("space_amp: empty store")
	}
	return single(float64(env.Pool.Stats().AllocatedBytes) / float64(live)), nil
}

func runServe(spec serveSpec, sc scale, seed uint64) (*result, error) {
	r := newResult(spec.name)
	env, err := timedSetup(r, sc.setupReps,
		func() (*serveEnv, error) { return setupServe(spec, sc, seed, engine.Knobs{}) },
		(*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := runServePhase(env, spec, sc, seed, r); err != nil {
		return nil, err
	}
	if spec.spaceAmp {
		if err := env.srv.Close(); err != nil {
			return nil, err
		}
		if r.Metrics["space_amp"], err = spaceAmp(env.dev, variant.SPP); err != nil {
			return nil, err
		}
	}
	return r, nil
}
