package spp

// One testing.B benchmark per table and figure of the paper's
// evaluation (§VI). Each iteration regenerates the experiment at a
// laptop scale; run `go run ./cmd/sppbench` for the full tables with
// configurable scale. Micro-benchmarks for the SPP hook fast paths
// follow, since they are what the figures ultimately measure.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/hooks"
)

func benchCfg() bench.Config {
	return bench.Config{Scale: 0.002, Threads: []int{1, 4}, PoolSize: 128 << 20, Seed: 42}
}

// BenchmarkFig4Indices regenerates Figure 4: persistent-index
// throughput under PMDK, SafePM and SPP.
func BenchmarkFig4Indices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Pmemkv regenerates Figure 5: pmemkv workloads across
// the thread axis.
func BenchmarkFig5Pmemkv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Phoenix regenerates Figure 6: the Phoenix suite.
func BenchmarkFig6Phoenix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PMOps regenerates Figure 7: atomic and transactional
// PM management operations across object sizes.
func BenchmarkFig7PMOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Recovery regenerates Table II: recovery time vs
// snapshotted PMEMoids.
func BenchmarkTable2Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Space regenerates Table III: SPP's PM space overhead
// per index.
func BenchmarkTable3Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Ripe regenerates Table IV: the RIPE attack matrix
// against every protection mechanism.
func BenchmarkTable4Ripe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashConsistency regenerates the §VI-E pmemcheck +
// pmreorder validation.
func BenchmarkCrashConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.CrashConsistency(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the DESIGN.md §7 ablation: pass
// optimizations, _direct hooks and the SafePM medium model.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablation(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// Hook-level micro-benchmarks: the per-access cost each mechanism adds.

func benchmarkLoad(b *testing.B, prot Protection) {
	pool, err := Open(Options{PoolSize: 64 << 20, Protection: prot})
	if err != nil {
		b.Fatal(err)
	}
	oid, err := pool.Alloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	p := pool.Direct(oid)
	rt := pool.Runtime()
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		v, err := hooks.LoadU64(rt, rt.Gep(p, int64(i%512)*8))
		if err != nil {
			b.Fatal(err)
		}
		s += v
	}
	sink = s
}

var sink uint64

// BenchmarkCheckedLoadPMDK is the uninstrumented baseline access cost.
func BenchmarkCheckedLoadPMDK(b *testing.B) { benchmarkLoad(b, ProtectionNone) }

// BenchmarkCheckedLoadSPP measures SPP's tag-arithmetic access cost.
func BenchmarkCheckedLoadSPP(b *testing.B) { benchmarkLoad(b, ProtectionSPP) }

// BenchmarkCheckedLoadSafePM measures the shadow-memory access cost.
func BenchmarkCheckedLoadSafePM(b *testing.B) { benchmarkLoad(b, ProtectionSafePM) }

// BenchmarkCheckedLoadMemcheck measures the addressability-tracking
// access cost.
func BenchmarkCheckedLoadMemcheck(b *testing.B) { benchmarkLoad(b, ProtectionMemcheck) }

// Scan benchmarks: the shapes that would expose a cliff in the ordered
// index (DESIGN.md §17). 20 000 keys of 256-byte values under SPP —
// the ledger's serve_scan population without the socket.

const (
	scanBenchKeys  = 20000
	scanBenchValue = 256
)

func scanBenchKey(buf []byte, i int) []byte {
	return fmt.Appendf(buf[:0], "key-%012d", i)
}

// kvBenchStore preloads scanBenchKeys keys of valueSize bytes under
// prot.
func kvBenchStore(b *testing.B, prot Protection, valueSize int) *Store {
	b.Helper()
	_, st := kvBenchPoolStore(b, prot, valueSize)
	return st
}

// kvBenchPoolStore is kvBenchStore for a caller that needs the pool
// under the store too.
func kvBenchPoolStore(b *testing.B, prot Protection, valueSize int) (*Pool, *Store) {
	b.Helper()
	pool, err := Open(Options{PoolSize: 256 << 20, Protection: prot})
	if err != nil {
		b.Fatal(err)
	}
	st, err := pool.OpenStore()
	if err != nil {
		b.Fatal(err)
	}
	kbuf, value := make([]byte, 0, 16), make([]byte, valueSize)
	for i := 0; i < scanBenchKeys; i++ {
		if err := st.Put(scanBenchKey(kbuf, i), value); err != nil {
			b.Fatal(err)
		}
	}
	return pool, st
}

// scanBenchStore preloads the scan population. With activate set it
// runs one scan, so the store carries its index from then on.
func scanBenchStore(b *testing.B, activate bool) *Store {
	b.Helper()
	st := kvBenchStore(b, ProtectionSPP, scanBenchValue)
	if activate {
		if err := st.Scan(nil, nil, func(_, _ []byte) bool { return false }); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkScanBounded times one bounded scan, preceded by `puts`
// overwrites of random keys (timed too: an index moves scan cost into
// the writer, and the sum is what a mixed workload pays). rows = 0 is
// the full range.
func BenchmarkScanBounded(b *testing.B) {
	st := scanBenchStore(b, false)
	for _, bc := range []struct {
		name       string
		rows, puts int
	}{
		{"rows32/idle", 32, 0},
		{"rows32/put1", 32, 1},
		{"rows32/put64", 32, 64},
		{"rows4096", 4096, 0},
		{"full", 0, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			lobuf, hibuf, kbuf := make([]byte, 0, 16), make([]byte, 0, 16), make([]byte, 0, 16)
			value := make([]byte, scanBenchValue)
			for i := 0; i < b.N; i++ {
				for p := 0; p < bc.puts; p++ {
					if err := st.Put(scanBenchKey(kbuf, rng.Intn(scanBenchKeys)), value); err != nil {
						b.Fatal(err)
					}
				}
				var lo, hi []byte
				want := scanBenchKeys
				if bc.rows > 0 {
					start := rng.Intn(scanBenchKeys - bc.rows)
					lo, hi = scanBenchKey(lobuf, start), scanBenchKey(hibuf, start+bc.rows)
					want = bc.rows
				}
				got := 0
				if err := st.Scan(lo, hi, func(k, v []byte) bool {
					got++
					sink += uint64(len(k) + len(v))
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("scan returned %d rows, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkPutIndexed is what the index costs a writer: the same
// overwrite on a store that has never scanned and on one that has.
func BenchmarkPutIndexed(b *testing.B) {
	for _, activate := range []bool{false, true} {
		name := "never-scanned"
		if activate {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			st := scanBenchStore(b, activate)
			rng := rand.New(rand.NewSource(1))
			kbuf, value := make([]byte, 0, 16), make([]byte, scanBenchValue)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put(scanBenchKey(kbuf, rng.Intn(scanBenchKeys)), value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Point-operation benchmarks: the ledger's embed_kv population — 20 000
// keys, 1-KiB values — per protection variant, without the harness
// around it. What a Get or an overwrite costs is mostly how many chain
// entries it walks and copies (DESIGN.md §17, key placement).

const kvBenchValue = 1024

var kvBenchVariants = []Protection{ProtectionNone, ProtectionSPP, ProtectionSafePM, ProtectionMemcheck}

func BenchmarkKVGet(b *testing.B) {
	for _, prot := range kvBenchVariants {
		b.Run(string(prot), func(b *testing.B) {
			st := kvBenchStore(b, prot, kvBenchValue)
			rng := rand.New(rand.NewSource(1))
			kbuf := make([]byte, 0, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, ok, err := st.Get(scanBenchKey(kbuf, rng.Intn(scanBenchKeys)))
				if err != nil || !ok {
					b.Fatalf("Get = %v, %v", ok, err)
				}
				sink += uint64(len(v))
			}
		})
	}
}

// BenchmarkKVPutOverwrite times an overwrite per variant and, as
// `tracked`, under SPP on a device that tracks persistence — the only
// mode in which Flush and Fence do work, and the shape of the ledger's
// durable_write.
func BenchmarkKVPutOverwrite(b *testing.B) {
	run := func(name string, prot Protection, tracked bool) {
		b.Run(name, func(b *testing.B) {
			pool, st := kvBenchPoolStore(b, prot, kvBenchValue)
			if tracked {
				pool.env.Dev.EnableTracking(nil)
			}
			rng := rand.New(rand.NewSource(1))
			kbuf, value := make([]byte, 0, 16), make([]byte, kvBenchValue)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put(scanBenchKey(kbuf, rng.Intn(scanBenchKeys)), value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, prot := range kvBenchVariants {
		run(string(prot), prot, false)
	}
	run("tracked", ProtectionSPP, true)
}
