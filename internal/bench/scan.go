package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/variant"
)

// ScanBench measures the MVCC read path (DESIGN.md §17): a snapshot
// reader — batches of point gets plus a bounded range scan, each batch
// against one pinned snapshot — first against an idle store, then with
// a writer storming puts over the same key space. The mvcc rows use
// the lock-free snapshot path; the no-mvcc rows are the ablation
// baseline, where the same reader degrades to per-shard RWMutex reads
// that queue behind every writer transaction. Under MVCC the storm row
// holds near the machine's CPU-share bound; under the lock baseline
// the writer's lock hold times (an entire transaction each) collapse
// it well below that.
func ScanBench(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	keySpace := cfg.scaled(100_000)
	dur := time.Duration(float64(10*time.Second) * cfg.Scale)
	if dur < 250*time.Millisecond {
		dur = 250 * time.Millisecond
	}
	if dur > 10*time.Second {
		dur = 10 * time.Second
	}
	const (
		getsPerBatch = 32
		scanWidth    = 100 // keys per bounded range scan
		stormWriters = 4
	)

	t := Table{
		Title: fmt.Sprintf("Snapshot reads under write storm: %d keys, %v/phase, SPP protection",
			keySpace, dur),
		Columns: []string{"mode", "phase", "get Kops/s", "vs idle", "p99 get µs", "scan keys/s", "write Kops/s"},
		Notes: []string{
			fmt.Sprintf("reader: batches of %d snapshot gets + one %d-key range scan per pinned snapshot", getsPerBatch, scanWidth),
			fmt.Sprintf("storm: %d writer goroutines put over the same key space as fast as they can", stormWriters),
			"mvcc = snapshot path (zero read-side locks); no-mvcc = per-shard RWMutex ablation (-no-mvcc)",
			"on an N-core host the storm ceiling for a never-blocking reader is its CPU share, not the idle figure",
			"p99 get latency is the lock-free claim made visible even on one core: snapshot reads never park behind a writer's transaction-length lock hold",
			"scan keys/s: the mvcc reader's first scan walks every chain and activates the ordered index, every later one seeks it; the no-mvcc reader has no index and walks the whole store per scan",
		},
	}

	for _, mode := range []struct {
		name   string
		noMVCC bool
	}{{"mvcc", false}, {"no-mvcc", true}} {
		var idleTput float64
		for _, storm := range []bool{false, true} {
			knobs := cfg.Knobs
			knobs.NoMVCC = mode.noMVCC
			env, err := variant.New(variant.SPP, variant.Options{
				PoolSize: cfg.PoolSize,
				Knobs:    knobs,
			})
			if err != nil {
				return t, err
			}
			writers := 0
			if storm {
				writers = stormWriters
			}
			r, err := runScanPhase(env, keySpace, writers, dur, getsPerBatch, scanWidth)
			if err != nil {
				return t, fmt.Errorf("%s/storm=%v: %w", mode.name, storm, err)
			}
			phase := "idle"
			tput := throughput(r.gets, r.wall)
			vsIdle := "-"
			if storm {
				phase = "storm"
				if idleTput > 0 {
					vsIdle = fmt.Sprintf("%.2fx", tput/idleTput)
				}
			} else {
				idleTput = tput
			}
			t.Rows = append(t.Rows, []string{
				mode.name, phase,
				fmt.Sprintf("%.1f", tput/1e3),
				vsIdle,
				fmt.Sprintf("%.1f", r.p99.Seconds()*1e6),
				fmt.Sprintf("%.0f", throughput(r.scanned, r.wall)),
				fmt.Sprintf("%.1f", throughput(r.writes, r.wall)/1e3),
			})
		}
	}
	return t, nil
}

type scanPhaseResult struct {
	gets, scanned, writes int
	wall                  time.Duration
	p99                   time.Duration
}

// runScanPhase preloads the store, then runs the reader (and, in the
// storm phase, `writers` put goroutines) for dur.
func runScanPhase(env *variant.Env, keySpace, writers int, dur time.Duration, getsPerBatch, scanWidth int) (scanPhaseResult, error) {
	s, err := kvstore.Open(env.RT)
	if err != nil {
		return scanPhaseResult{}, err
	}
	value := make([]byte, 64)
	for i := 0; i < keySpace; i++ {
		if err := s.Put(scanKey(i), value); err != nil {
			return scanPhaseResult{}, err
		}
	}

	var res scanPhaseResult
	var stop atomic.Bool
	var wg sync.WaitGroup
	var writes atomic.Int64
	writeErrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newXorshift(int64(w) + 1)
			for !stop.Load() {
				if err := s.Put(scanKey(int(rng.next()%uint64(keySpace))), value); err != nil {
					writeErrs[w] = err
					return
				}
				writes.Add(1)
			}
		}(w)
	}

	rng := newXorshift(int64(writers) + 2)
	var lat []time.Duration
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		sn := s.Snapshot()
		for i := 0; i < getsPerBatch; i++ {
			t0 := time.Now()
			_, _, err := sn.Get(scanKey(int(rng.next() % uint64(keySpace))))
			if err != nil {
				sn.Release()
				stop.Store(true)
				wg.Wait()
				return res, err
			}
			lat = append(lat, time.Since(t0))
			res.gets++
		}
		lo := int(rng.next() % uint64(keySpace))
		hi := lo + scanWidth
		if hi > keySpace {
			hi = keySpace
		}
		err := sn.Scan(scanKey(lo), scanKey(hi), func(_, _ []byte) bool {
			res.scanned++
			return true
		})
		if rerr := sn.Release(); err == nil {
			err = rerr
		}
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return res, err
		}
	}
	res.wall = time.Since(start)
	stop.Store(true)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.p99 = pickQuantile(lat, 0.99)
	res.writes = int(writes.Load())
	for _, err := range writeErrs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func scanKey(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }
