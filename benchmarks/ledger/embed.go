package main

import (
	"fmt"
	"sync"
	"time"

	spp "repro"
)

// embed_kv: the public embedded API, no socket. Two stores (pmdk, spp)
// receive identical op sequences in interleaved window pairs, so the
// pair ratio is the paper's Fig. 5 slowdown.
const (
	embedWorkers   = 2
	embedValueSize = 1024
)

var embedMix = mix{get: 95, put: 5}

type embedStore struct {
	pool  *spp.Pool
	store *spp.Store
}

// embedEnv holds the two stores; index 0 is pmdk, 1 is spp.
type embedEnv [2]embedStore

var embedProtections = [2]spp.Protection{spp.ProtectionNone, spp.ProtectionSPP}

func setupEmbed(sc scale, seed uint64) (*embedEnv, error) {
	env := &embedEnv{}
	kbuf, vbuf := make([]byte, keyLen), make([]byte, embedValueSize)
	for i, prot := range embedProtections {
		pool, err := spp.Open(spp.Options{PoolSize: kvPoolSize, Protection: prot})
		if err != nil {
			return nil, err
		}
		st, err := pool.OpenStore()
		if err != nil {
			return nil, err
		}
		for k := 0; k < sc.keys; k++ {
			key := putKey(kbuf, k)
			fillValue(vbuf, key, 0, seed)
			if err := st.Put(key, vbuf); err != nil {
				return nil, fmt.Errorf("%s preload key %d: %w", prot, k, err)
			}
		}
		env[i] = embedStore{pool, st}
	}
	return env, nil
}

// embedWorker is one goroutine's generator state, kept across windows
// so a pair can rewind to replay the same ops on the other store.
type embedWorker struct {
	gen     rng
	version uint64
	kbuf    []byte
	vbuf    []byte
}

// embedWindow runs every worker against st. With counts nil each
// worker runs for window and reports how many ops it did; otherwise
// worker g runs exactly counts[g] ops.
func embedWindow(st *spp.Store, workers []embedWorker, sc scale, seed uint64, window time.Duration, counts []int64, r *result) ([]int64, time.Duration) {
	done := make([]int64, len(workers))
	fails := make([]*result, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for g := range workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, res := &workers[g], newResult(wEmbedKV)
			fails[g] = res
			for n := int64(0); ; n++ {
				if counts != nil {
					if n == counts[g] {
						break
					}
				} else if n%64 == 0 && time.Since(start) >= window {
					break
				}
				o := w.gen.nextOp(embedMix, sc.keys)
				key := putKey(w.kbuf, o.key)
				if o.kind == opGet {
					v, ok, err := st.Get(key)
					if err != nil || !ok {
						res.fail("get %s: ok=%v err=%v", key, ok, err)
					} else if _, good := checkValue(v, key, embedValueSize, seed); !good {
						res.fail("get %s: wrong value", key)
					}
				} else {
					w.version++
					fillValue(w.vbuf, key, w.version, seed)
					if err := st.Put(key, w.vbuf); err != nil {
						res.fail("put %s: %v", key, err)
					}
				}
				done[g]++
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, f := range fails {
		r.Failed += f.Failed
		r.Notes = append(r.Notes, f.Notes...)
	}
	return done, elapsed
}

func runEmbed(sc scale, seed uint64) (*result, error) {
	r := newResult(wEmbedKV)
	env, err := timedSetup(r, sc.setupReps,
		func() (*embedEnv, error) { return setupEmbed(sc, seed) },
		func(*embedEnv) {})
	if err != nil {
		return nil, err
	}
	// Interleaved pairs of windows, each half of a pair
	// sc.dur/(2*pairs) long.
	pairs := windowCount(sc.dur) / 2
	window := sc.dur / time.Duration(2*pairs)
	workers := make([]embedWorker, embedWorkers)
	for g := range workers {
		workers[g] = embedWorker{gen: newRNG(seed, uint64(g+1)), version: uint64(g+1) << 56,
			kbuf: make([]byte, keyLen), vbuf: make([]byte, embedValueSize)}
	}
	var sppRate, slowdown []float64
	var ops int64
	meter := startAllocMeter()
	for p := 0; p <= pairs; p++ { // pair 0 is the discarded warm-up
		// Alternate which variant goes first so drift within a pair
		// cancels over the run.
		first := p % 2
		saved := make([]embedWorker, len(workers))
		copy(saved, workers)
		var counts []int64 // nil for the first half: run for window
		var rate [2]float64
		for half, v := range [2]int{first, 1 - first} {
			if half == 1 {
				copy(workers, saved) // same ops, other store
			}
			done, elapsed := embedWindow(env[v].store, workers, sc, seed, window, counts, r)
			counts = done
			var n int64
			for _, d := range done {
				n += d
			}
			ops += n
			rate[v] = float64(n) / elapsed.Seconds()
		}
		if p > 0 {
			sppRate = append(sppRate, rate[1])
			slowdown = append(slowdown, rate[0]/rate[1])
		}
	}
	r.Attempted = ops
	r.Metrics["go_alloc_bytes_per_op"] = meter.bytesPerOp(ops)
	r.Metrics["ops_per_s"] = quartileOf(sppRate, "higher")
	r.Metrics["spp_slowdown"] = medianOf(slowdown)
	// Reopen first: recovery drains the MVCC retire chains, so versions
	// still waiting for reclaim when the run stopped are not counted
	// and the figure is the steady-state footprint, as on serve_write.
	if err := env[1].pool.Reopen(); err != nil {
		return nil, err
	}
	live := float64(sc.keys * (keyLen + embedValueSize))
	r.Metrics["space_amp"] = single(float64(env[1].pool.Stats().AllocatedBytes) / live)
	return r, nil
}
