package kvstore

import (
	"time"

	"repro/internal/telemetry"
)

// Scan telemetry: how many keys a scan had to look at for the rows it
// returned is the figure that separates an index seek from a chain
// walk. Counters aggregate across stores.
var (
	metScans        = telemetry.Default.Counter("spp_kv_scans_total", "ordered scans run (Store.Scan, Snap.Scan, locked fallback)")
	metScanExamined = telemetry.Default.Counter("spp_kv_scan_rows_examined_total", "keys scans looked at: every stored key on the chain-walk path, one per shard cursor position on the index path")
	metScanReturned = telemetry.Default.Counter("spp_kv_scan_rows_returned_total", "rows scans handed to their callers")
	metIndexBuilds  = telemetry.Default.Counter("spp_kv_index_builds_total", "per-shard ordered-index builds (first-scan activation and rehash)")
)

// Point-operation telemetry: operations that completed, by outcome,
// whichever surface asked — a served request, an embedded caller or a
// snapshot's Get.
var (
	metGets        = telemetry.Default.CounterVec("spp_kv_gets_total", "lookups (Get, AppendGet, Snap.Get) that completed, by whether the key was there", "result")
	metGetsHit     = metGets.With("hit")
	metGetsMiss    = metGets.With("miss")
	metPuts        = telemetry.Default.Counter("spp_kv_puts_total", "puts committed")
	metDeletes     = telemetry.Default.CounterVec("spp_kv_deletes_total", "deletes that completed, by whether the key was there", "result")
	metDeletesHit  = metDeletes.With("hit")
	metDeletesMiss = metDeletes.With("miss")
)

// hitOrMiss picks the counter of a {result} pair.
func hitOrMiss(found bool, hit, miss *telemetry.Counter) *telemetry.Counter {
	if found {
		return hit
	}
	return miss
}

// Hash-layout telemetry: the probe length is the cost of the layout as
// a point operation pays it — a store at load factor one should walk
// one or two entries, and a p99 far above that means keys are crowding
// into few buckets.
var (
	metProbeLength = telemetry.Default.HistogramBuckets("spp_kv_probe_length",
		"chain entries a Get, Put or Delete walked to find its key or the end of its bucket",
		[]uint64{1, 2, 4, 8, 16, 32, 64})
	metRehashes = telemetry.Default.Counter("spp_kv_rehashes_total", "per-shard bucket-array rebuilds (load-factor doublings and placement migration)")
	metRehashNS = telemetry.Default.HistogramBuckets("spp_kv_rehash_ns",
		"duration of one per-shard bucket-array rebuild", telemetry.NSBuckets)
	metLayoutMigrations = telemetry.Default.Counter("spp_kv_layout_migrations_total", "stores re-bucketed at open because their placement version was older than this build's")
)

// observeRehash records one completed bucket-array rebuild begun at
// start.
func observeRehash(start time.Time) {
	metRehashes.Inc()
	metRehashNS.Observe(uint64(time.Since(start)))
}

// MVCC telemetry. A snapshot that is never released shows in all four:
// the pin lag and the pending retire nodes grow with every write, reads
// through the old roots skip more head versions, and folded reclaims
// stop while writes continue.
var (
	metHeadVersionsWalked = telemetry.Default.HistogramBuckets("spp_mvcc_head_versions_walked",
		"head versions newer than its root a bucket lookup skipped; above 1 means a pinned old root",
		[]uint64{0, 1, 2, 4, 8, 16, 64})
	metReclaims = telemetry.Default.CounterVec("spp_mvcc_reclaims_total",
		"retire nodes freed, by how: folded into a writer's transaction, or standalone in one of their own (backlog, Reclaim)", "how")
	metReclaimsFolded     = metReclaims.With("folded")
	metReclaimsStandalone = metReclaims.With("standalone")
)

// registerTelemetry publishes this store's MVCC state gauges. GaugeFunc
// replaces on re-registration, so they describe the most recently
// opened store of a telemetry-enabled process.
func (s *Store) registerTelemetry() {
	reg := telemetry.Default
	reg.GaugeFunc("spp_mvcc_retire_nodes_pending", "retire nodes queued for reclamation across the store's shards", func() int64 {
		var n int64
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			n += int64(len(sh.retired))
			sh.mu.Unlock()
		}
		return n
	})
	reg.GaugeFunc("spp_mvcc_pin_lag_epochs", "epochs between the oldest pinned snapshot and the current epoch; 0 with no pin", func() int64 {
		min := s.minPin.Load()
		if min == ^uint64(0) {
			return 0
		}
		return int64(s.epoch.Load() - min)
	})
}
