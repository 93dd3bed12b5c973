package kvstore

import "repro/internal/telemetry"

// Scan telemetry: how many keys a scan had to look at for the rows it
// returned is the figure that separates an index seek from a chain
// walk. Counters aggregate across stores.
var (
	metScans        = telemetry.Default.Counter("spp_kv_scans_total", "ordered scans run (Store.Scan, Snap.Scan, locked fallback)")
	metScanExamined = telemetry.Default.Counter("spp_kv_scan_rows_examined_total", "keys scans looked at: every stored key on the chain-walk path, one per shard cursor position on the index path")
	metScanReturned = telemetry.Default.Counter("spp_kv_scan_rows_returned_total", "rows scans handed to their callers")
	metIndexBuilds  = telemetry.Default.Counter("spp_kv_index_builds_total", "per-shard ordered-index builds (first-scan activation and rehash)")
)
