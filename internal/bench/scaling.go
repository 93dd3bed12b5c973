package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hooks"
	"repro/internal/kvstore"
	"repro/internal/pmemobj"
	"repro/internal/variant"
)

// Scaling quantifies the concurrency refactor of the memory path: an
// alloc/free storm on the native runtime and a 50/50 pmemkv workload,
// each across the goroutine axis, with the sharded allocator (per-class
// arenas) against a single serialized arena. On a
// multi-core runner the sharded column scales with the axis while the
// single-arena column flattens; on one CPU both stay near the 1-
// goroutine figure.
func Scaling(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	axis := cfg.Threads
	if axis[0] != 1 {
		axis = append([]int{1}, axis...)
	}
	allocOps := cfg.scaled(2_000_000)
	kvPreload := cfg.scaled(100_000)
	kvOps := cfg.scaled(1_000_000)

	t := Table{
		Title: fmt.Sprintf("Memory-path scaling: %d alloc/free + %d kv ops, sharded vs 1 arena",
			allocOps, kvOps),
		Columns: []string{"workload", "goroutines",
			"sharded Kops/s", "vs 1g", "1 arena Kops/s", "vs 1g"},
	}

	modes := []struct {
		name   string
		arenas int
	}{
		{"sharded", cfg.NArenas},
		{"1 arena", 1},
	}

	type workload struct {
		name string
		run  func(env *variant.Env, workers int) (int, time.Duration, error)
	}
	// kvRun builds the 50/50 pmemkv workload over a given shard count
	// (0 = the store's default), so the shard axis is measurable.
	kvRun := func(shards uint64) func(env *variant.Env, workers int) (int, time.Duration, error) {
		return func(env *variant.Env, workers int) (int, time.Duration, error) {
			s, err := kvstore.Open(env.RT, kvstore.WithShards(shards))
			if err != nil {
				return 0, 0, err
			}
			value := make([]byte, 1024)
			for i := 0; i < kvPreload; i++ {
				if err := s.Put([]byte(fmt.Sprintf("%016d", i)), value); err != nil {
					return 0, 0, err
				}
			}
			wl := fig5Workload{name: "50/50", readPct: 50}
			d, err := runFig5Workload(s, wl, kvPreload, kvOps, workers, cfg.Seed)
			return kvOps, d, err
		}
	}
	workloads := []workload{
		{"alloc/free storm", func(env *variant.Env, workers int) (int, time.Duration, error) {
			d, err := allocStorm(env.RT, workers, allocOps/workers, cfg.Seed)
			return allocOps, d, err
		}},
		{"kvstore 50/50", kvRun(0)},
		{"kvstore 50/50, 8 shards", kvRun(8)},
		{"kvstore 50/50, 1 shard", kvRun(1)},
	}

	for _, wl := range workloads {
		base := map[string]float64{}
		for _, g := range axis {
			row := []string{wl.name, fmt.Sprintf("%d", g)}
			for _, m := range modes {
				env, err := variant.New(variant.PMDK, scalingOptions(cfg, m.arenas))
				if err != nil {
					return t, err
				}
				ops, d, err := wl.run(env, g)
				if err != nil {
					return t, fmt.Errorf("%s/%s/%d: %w", wl.name, m.name, g, err)
				}
				tput := throughput(ops, d)
				if g == axis[0] {
					base[m.name] = tput
				}
				speedup := "-"
				if b := base[m.name]; b > 0 {
					speedup = fmt.Sprintf("%.2fx", tput/b)
				}
				row = append(row, fmt.Sprintf("%.1f", tput/1e3), speedup)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"sharded = the configured (or default) arena count; 1 arena = single mutex-serialized arena",
		"kvstore rows sweep the store's bucket-shard count (default 64): fewer shards "+
			"serialize writers on the per-shard locks regardless of allocator sharding")
	return t, nil
}

// scalingOptions is the environment of one Scaling column: the
// caller's options with only the arena count overridden.
func scalingOptions(cfg Config, arenas int) variant.Options {
	o := cfg.envOptions(0)
	o.NArenas = arenas
	return o
}

// allocStorm runs workers goroutines, each performing perWorker
// allocations of mixed size classes against a sliding window of live
// objects (a random victim is freed whenever the window fills).
func allocStorm(rt hooks.Runtime, workers, perWorker int, seed int64) (time.Duration, error) {
	if perWorker == 0 {
		perWorker = 1
	}
	const window = 64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newXorshift(seed + int64(w) + 1)
			live := make([]pmemobj.Oid, 0, window)
			for i := 0; i < perWorker; i++ {
				oid, err := rt.Alloc(64 + rng.next()%960)
				if err != nil {
					errs[w] = err
					return
				}
				live = append(live, oid)
				if len(live) == window {
					victim := int(rng.next() % uint64(len(live)))
					if err := rt.Free(live[victim]); err != nil {
						errs[w] = err
						return
					}
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, oid := range live {
				if err := rt.Free(oid); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}
