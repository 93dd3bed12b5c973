package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/indices"
	"repro/internal/variant"
)

// paper_indices: the paper's Fig. 4. One pass runs every (index kind,
// op) cell under pmdk, spp and safepm back to back on the same keys;
// the indices are emptied by the remove cells, so the same pools serve
// every pass.
const (
	indexKeyCount = 10000
	// The rtree's 256-oid nodes need 72 MB for 10000 keys under SPP.
	indexPoolSize = 256 << 20
)

var indexVariants = []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM}

// indexEnv holds one pool per variant, each carrying all four indices.
type indexEnv struct {
	maps [][]indices.Map // [variant][kind]
}

// setupIndices builds one pool per variant, sized for nkeys keys.
func setupIndices(kinds []variant.Kind, nkeys int) (*indexEnv, error) {
	env := &indexEnv{}
	size := max(32<<20, uint64(indexPoolSize)*uint64(nkeys)/indexKeyCount)
	for _, vk := range kinds {
		e, err := variant.New(vk, variant.Options{PoolSize: size})
		if err != nil {
			return nil, err
		}
		var ms []indices.Map
		for _, kind := range indices.Kinds {
			m, err := indices.New(kind, e.RT)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", kind, vk, err)
			}
			ms = append(ms, m)
		}
		env.maps = append(env.maps, ms)
	}
	return env, nil
}

// indexCells runs insert, get and remove of keys on m and returns
// ns/op for each, verifying every Get and that the index ends empty.
func indexCells(m indices.Map, keys []uint64, r *result) (ns [3]float64, err error) {
	n := float64(len(keys))
	t0 := time.Now()
	for _, k := range keys {
		if err := m.Insert(k, indexValue(k)); err != nil {
			return ns, fmt.Errorf("%s insert: %w", m.Name(), err)
		}
	}
	ns[0] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	bad := 0
	for _, k := range keys {
		v, ok, err := m.Get(k)
		if err != nil {
			return ns, fmt.Errorf("%s get: %w", m.Name(), err)
		}
		if !ok || v != indexValue(k) {
			bad++
		}
	}
	ns[1] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for _, k := range keys {
		if _, err := m.Remove(k); err != nil {
			return ns, fmt.Errorf("%s remove: %w", m.Name(), err)
		}
	}
	ns[2] = float64(time.Since(t0).Nanoseconds()) / n
	r.Attempted += 3 * int64(len(keys))
	if bad > 0 {
		r.failN(int64(bad), "%s: %d gets returned a wrong or missing value", m.Name(), bad)
	}
	if left, err := m.Count(); err != nil || left != 0 {
		r.fail("%s: %d keys left after removing all (err %v)", m.Name(), left, err)
	}
	return ns, nil
}

// indexPass runs every cell under every variant. Variants rotate their
// order from pass to pass so no variant always runs on a warm cache.
// cells[v][kind][op] is ns/op.
func indexPass(env *indexEnv, keys []uint64, pass int, r *result) ([][][3]float64, error) {
	nv := len(env.maps)
	cells := make([][][3]float64, nv)
	for v := range cells {
		cells[v] = make([][3]float64, len(indices.Kinds))
	}
	runtime.GC()
	for k := range indices.Kinds {
		for i := 0; i < nv; i++ {
			v := (i + pass) % nv
			ns, err := indexCells(env.maps[v][k], keys, r)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", indexVariants[v], err)
			}
			cells[v][k] = ns
		}
	}
	return cells, nil
}

func runIndices(sc scale, seed uint64) (*result, error) {
	r := newResult(wPaperIndices)
	keys := indexKeys(seed, indexKeyCount*sc.keys/keySpace)
	env, err := timedSetup(r, sc.setupReps,
		func() (*indexEnv, error) { return setupIndices(indexVariants, len(keys)) },
		func(*indexEnv) {})
	if err != nil {
		return nil, err
	}
	var sppSlow, safeSlow, sppRate []float64
	meter := startAllocMeter()
	start := time.Now()
	for pass := 0; ; pass++ { // pass 0 is the discarded warm-up
		if sc.dur > 0 {
			// At least three measured passes however short the run.
			if pass > 3 && time.Since(start) >= sc.dur {
				break
			}
		} else if pass > sc.windows {
			break
		}
		if pass == 1 {
			start = time.Now()
		}
		cells, err := indexPass(env, keys, pass, r)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			continue
		}
		var rs, rf, rate []float64
		for k := range indices.Kinds {
			for o := range indexOps {
				rs = append(rs, cells[1][k][o]/cells[0][k][o])
				rf = append(rf, cells[2][k][o]/cells[0][k][o])
				rate = append(rate, 1e9/cells[1][k][o])
			}
		}
		sppSlow = append(sppSlow, geomean(rs))
		safeSlow = append(safeSlow, geomean(rf))
		sppRate = append(sppRate, geomean(rate))
	}
	r.Metrics["go_alloc_bytes_per_op"] = meter.bytesPerOp(r.Attempted)
	r.Metrics["ops_per_s"] = quartileOf(sppRate, "higher")
	r.Metrics["spp_slowdown"] = medianOf(sppSlow)
	r.Metrics["safepm_slowdown"] = medianOf(safeSlow)
	return r, nil
}
