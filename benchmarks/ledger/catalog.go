package main

import (
	"fmt"
	"strings"

	"repro/internal/indices"
)

// The catalogue is the single definition of the benchmark's vocabulary:
// the code emits exactly these names, BENCHMARK.json is generated from
// it (-emit-benchmark-json), and so is the README's metric table
// (-emit-catalog). The consistency test holds all three together.

// Workload names.
const (
	wServeRead    = "serve_read"
	wServeWrite   = "serve_write"
	wServeScan    = "serve_scan"
	wEmbedKV      = "embed_kv"
	wPaperIndices = "paper_indices"
	wDurableWrite = "durable_write"
	wIRExec       = "ir_exec"
)

type workloadDef struct {
	Name string
	// Why is the one-line reason in BENCHMARK.json (<= 200 chars).
	Why string
	// What describes what runs, for the README.
	What string
}

var workloads = []workloadDef{
	{wServeRead,
		"wire+server+client+socket are ~70% of a served Get, so framing, per-request allocation and pipelining work shows here and almost nowhere else",
		"in-process server (spp, default admission window) <- 2 client conns, 95% Get / 5% Put, 256-B values"},
	{wServeWrite,
		"the engine (kvstore COW + pmemobj tx/alloc/free + retire/reclaim) is ~80% of a served Put; catches read-path gains that tax writes",
		"same server, 2 conns, 20% Get / 60% Put / 20% Delete, 1024-B values"},
	{wServeScan,
		"a bounded 32-row scan is O(total keys) today; kvstore collect/sort/merge and scan-payload encoding dominate, with Puts keeping COW/retire live",
		"same server, 2 conns, 90% Scan([k,k+32), limit 32) / 10% Put 256-B"},
	{wEmbedKV,
		"no socket, so hooks+core+pmaccess+vmem+kvstore are the whole cost; carries the paper's Fig. 5 ratio and is the bypass for every server-side change",
		"spp.Open + OpenStore, 2 goroutines, 95% Get / 5% Put, 1024-B values; windows alternate pmdk / spp on identical op sequences"},
	{wPaperIndices,
		"the paper's Fig. 4 and the only workload running indices and SafePM; pointer chasing makes hooks+vmem the largest share",
		"ctree/rbtree/rtree/hashmap x insert/get/remove of 10000 uniform 8-B keys, 1 goroutine, every cell under pmdk, spp, safepm back to back per pass"},
	{wDurableWrite,
		"only a tracked device makes Flush/Fence do real work, so pmem and the commit pipeline dominate; also the durability test: it discards unflushed bytes",
		"embedded store on a tracked device, 1 goroutine, 100% Put 256-B; crash, AdoptConfig + kvstore.Open, verify every acknowledged Put; >= 11 cycles"},
	{wIRExec,
		"the only workload touching ir/analysis/transform/interp; KV layers idle, so it is the bypass for all KV work and where elision/compile changes show",
		"ir.Parse -> transform.Apply -> closure-compiled run under pmdk and spp over benchmarks/corpus/*.ir, results checked against the reference interpreter"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef describes one metric. End-to-end metrics carry Bound and
// Homes; per-layer metrics carry Layer and Moves.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening of the median that counts as a
	// regression (end-to-end only).
	Bound float64
	// Homes lists the workloads whose measured phase produces the
	// metric natively. In single-workload (contract) mode every other
	// workload fills it from a reference lap of Homes[0]; see lap.go.
	Homes []string
	// Demoted marks an end-to-end metric that BENCHMARK.json declares
	// under per_layer: it is still measured end to end with tracing
	// off and still checked by -selfcheck and -compare against Bound,
	// but its run-to-run spread on the reference host is wider than
	// the driver's acceptance allows for a bounded metric (see the
	// README), which is the issue's own rule for such a metric.
	Demoted bool
	Help    string

	Layer string
	// Moves names the (end-to-end metric -> workload) pairs the layer
	// metric should move, and NotOn where no change is predicted.
	Moves string
	NotOn string
}

var allWorkloads = []string{wServeRead, wServeWrite, wServeScan, wEmbedKV, wPaperIndices, wDurableWrite, wIRExec}

// endToEnd is the 15-metric end-to-end list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Homes: allWorkloads,
		Help: "set-up time of the workload (pools, server, preload, compile), median of repeated set-ups"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Demoted: true, Homes: allWorkloads,
		Help: "completed ops/s, median over windows (spp windows on embed_kv; spp geomean of 12 cells on paper_indices; spp kernel runs on ir_exec)"},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Demoted: true, Homes: []string{wServeWrite, wServeRead},
		Help: "client-observed Get latency, exact median over the measured phase"},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Demoted: true, Homes: []string{wServeWrite, wServeRead},
		Help: "client-observed Put latency, exact median"},
	{Name: "get_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Demoted: true, Homes: []string{wServeWrite, wServeRead},
		Help: "client-observed Get latency, exact p99"},
	{Name: "put_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Demoted: true, Homes: []string{wServeWrite, wServeRead},
		Help: "client-observed Put latency, exact p99"},
	{Name: "scan_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Demoted: true, Homes: []string{wServeScan},
		Help: "client-observed bounded 32-row Scan latency, exact median"},
	{Name: "scan_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Demoted: true, Homes: []string{wServeScan},
		Help: "client-observed bounded 32-row Scan latency, exact p99"},
	{Name: "spp_slowdown", Unit: "ratio", Better: "lower", Bound: 0.20, Homes: []string{wPaperIndices, wEmbedKV, wIRExec},
		Help: "pmdk ops/s / spp ops/s, median of interleaved pairs (geomean of cells on paper_indices; spp run_ms / pmdk run_ms on ir_exec)"},
	{Name: "safepm_slowdown", Unit: "ratio", Better: "lower", Bound: 0.25, Homes: []string{wPaperIndices},
		Help: "same ratio for SafePM"},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25, Demoted: true, Homes: []string{wDurableWrite},
		Help: "crash -> pool recovered and store serving again, median of crash cycles"},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.06, Homes: []string{wDurableWrite, wServeWrite, wEmbedKV},
		Help: "Pool.Stats().AllocatedBytes / live user bytes (keys+values) at end of run"},
	{Name: "compile_ms", Unit: "ms", Better: "lower", Bound: 0.15, Demoted: true, Homes: []string{wIRExec},
		Help: "ir.Parse + transform.Apply + CompileAll over the whole corpus"},
	{Name: "run_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true, Homes: []string{wIRExec},
		Help: "closure-compiled execution of the whole corpus under SPP at fixed iterations"},
	{Name: "go_alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05, Homes: allWorkloads,
		Help: "runtime.MemStats.TotalAlloc delta / ops over the measured phase (load generator included)"},
}

func (m metricDef) homeOn(workload string) bool {
	for _, h := range m.Homes {
		if h == workload {
			return true
		}
	}
	return false
}

// contractEndToEnd is the end_to_end list of BENCHMARK.json: the
// end-to-end metrics that are not demoted.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Demoted {
			out = append(out, m)
		}
	}
	return out
}

// contractPerLayer is the per_layer list of BENCHMARK.json: the layer
// metrics, then the demoted end-to-end ones.
func contractPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		if m.Demoted {
			m.Layer = "end to end (demoted)"
			out = append(out, m)
		}
	}
	return out
}

func e2eByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// indexOps are the Fig. 4 operations in pass order.
var indexOps = []string{"insert", "get", "remove"}

func indexCellMetric(kind, op, variant string) string {
	return fmt.Sprintf("indices.%s.%s_ns.%s", kind, op, variant)
}

// perLayer is the per-layer list (with the demoted end-to-end
// metrics, <= 128). "unit" rows time a layer's
// exported functions in isolation at fixed iteration counts; "replay"
// rows are counter or span deltas over the traced replay.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer, moves, notOn string, defs ...metricDef) {
		for _, d := range defs {
			d.Layer, d.Moves, d.NotOn = layer, moves, notOn
			if d.Better == "" {
				d.Better = "lower"
			}
			out = append(out, d)
		}
	}
	ns := func(name, help string) metricDef { return metricDef{Name: name, Unit: "ns", Help: help} }
	cnt := func(name, help string) metricDef { return metricDef{Name: name, Unit: "count", Help: help} }
	us := func(name, help string) metricDef { return metricDef{Name: name, Unit: "us", Help: help} }

	add("wire", "get_p50_us, ops_per_s, go_alloc_bytes_per_op -> serve_read; scan_p50_us -> serve_scan", "embed_kv, ir_exec",
		ns("wire.encode_req_ns", "replay: AppendRequest self time per op"),
		ns("wire.decode_req_ns", "replay: ReadRequest self time per op"),
		ns("wire.encode_resp_ns", "replay: WriteResponse self time per op"),
		ns("wire.decode_resp_ns", "replay: ReadResponse (+ParseScanResult) self time per op"),
		metricDef{Name: "wire.req_bytes", Unit: "B", Help: "replay: mean request frame size"},
		metricDef{Name: "wire.resp_bytes", Unit: "B", Help: "replay: mean response frame size"},
		cnt("wire.mallocs_per_op", "replay: Go mallocs per op across the four wire stages"),
	)
	add("client/server", "get_p50_us, get_p99_us, ops_per_s -> serve_read", "embed_kv, durable_write",
		ns("client.roundtrip_ns", "replay: mean client.roundtrip span through the live server, 1 conn"),
		cnt("client.mallocs_per_op", "replay: Go mallocs per live round trip (client and in-process server)"),
		ns("server.queue_ns", "replay: trace.Snapshot() PhaseQueue per request at TraceSample=1"),
		ns("server.exec_ns", "replay: trace.Snapshot() PhaseExec per request"),
		ns("server.residual_ns", "replay: roundtrip - sum(wire stages) - kvstore op: syscalls, wake-ups, dispatch (the unaccounted row)"),
	)
	add("kvstore", "put_p50_us, ops_per_s, space_amp -> serve_write; scan_p50_us -> serve_scan; ops_per_s -> embed_kv", "ir_exec, paper_indices",
		ns("kvstore.get_ns", "replay: mean kvstore.get span"),
		ns("kvstore.put_ns", "replay: mean kvstore.put span"),
		ns("kvstore.delete_ns", "replay: mean kvstore.delete span"),
		ns("kvstore.scan_ns", "replay: mean kvstore.scan span"),
		ns("kvstore.snap_get_ns", "replay: Snap.Get on a pinned snapshot"),
		cnt("kvstore.scan_pairs_per_call", "replay: pairs returned per Scan"),
		cnt("kvstore.tx_per_put", "replay: spp_tx_begin_total per Put"),
		cnt("kvstore.pm_allocs_per_put", "replay: spp_alloc_total per Put"),
		cnt("kvstore.pm_frees_per_put", "replay: spp_free_total per Put"),
		metricDef{Name: "kvstore.pm_alloc_bytes_per_put", Unit: "B", Help: "replay: spp_alloc_bytes_total per Put"},
		ns("kvstore.maint_ns", "replay: trace PhaseMaint (rehash, reclaim) per Put"),
		metricDef{Name: "kvstore.safepm_preload_puts_ok", Unit: "count", Better: "higher",
			Help: "unit canary: 1-KiB Puts a SafePM store accepts before failing, capped at 20000 (20000 once the defect is fixed)"},
	)
	add("hooks/core", "spp_slowdown -> embed_kv, paper_indices; run_ms -> ir_exec", "serve_scan <= noise; pmdk windows anywhere",
		ns("hooks.check_ns.pmdk", "unit: Runtime.Check"),
		ns("hooks.check_ns.spp", "unit: Runtime.Check"),
		ns("hooks.check_ns.safepm", "unit: Runtime.Check"),
		ns("hooks.gep_ns.spp", "unit: Runtime.Gep"),
		ns("hooks.memintr_ns.spp", "unit: Runtime.MemIntr"),
		ns("core.checkbound_ns", "unit: Encoding.CheckBound"),
		ns("core.updatetag_ns", "unit: Encoding.UpdateTag"),
		cnt("hooks.checks_per_get", "replay: checkbound hooks per Get (exact telemetry counters)"),
		cnt("hooks.geps_per_get", "replay: updatetag hooks per Get"),
		cnt("hooks.memintrs_per_get", "replay: memintr hooks per Get"),
		cnt("hooks.checks_per_put", "replay: checkbound hooks per Put"),
		cnt("hooks.geps_per_put", "replay: updatetag hooks per Put"),
		cnt("hooks.memintrs_per_put", "replay: memintr hooks per Put"),
		metricDef{Name: "hooks.time_share_get", Unit: "ratio", Help: "derived: sum(count x unit ns) / kvstore.get_ns"},
	)
	add("pmaccess", "spp_slowdown -> paper_indices, embed_kv", "ir_exec",
		ns("pmaccess.load_ns.pmdk", "unit: Ctx.Load"),
		ns("pmaccess.load_ns.spp", "unit: Ctx.Load"),
		ns("pmaccess.store_ns.pmdk", "unit: Ctx.Store"),
		ns("pmaccess.store_ns.spp", "unit: Ctx.Store"),
		ns("pmaccess.load_oid_ns.pmdk", "unit: Ctx.LoadOid"),
		ns("pmaccess.load_oid_ns.spp", "unit: Ctx.LoadOid"),
	)
	add("vmem", "ops_per_s -> embed_kv, paper_indices (both variants, so the ratio stays flat)", "",
		ns("vmem.load_u64_ns", "unit: AddressSpace.LoadU64"),
		ns("vmem.store_u64_ns", "unit: AddressSpace.StoreU64"),
		ns("vmem.load_bytes_1k_ns", "unit: AddressSpace.LoadBytes of 1 KiB"),
	)
	add("pmemobj", "put_p50_us, ops_per_s -> serve_write, durable_write; recover_ms -> durable_write; space_amp", "serve_read (< 5% writes), ir_exec",
		ns("pmemobj.alloc_ns.128", "unit: Pool.Alloc(128)"),
		ns("pmemobj.alloc_ns.1k", "unit: Pool.Alloc(1024)"),
		ns("pmemobj.free_ns.128", "unit: Pool.Free of a 128-B object"),
		ns("pmemobj.free_ns.1k", "unit: Pool.Free of a 1-KiB object"),
		ns("pmemobj.tx_begin_ns", "unit: Pool.Begin (then an empty Commit, not timed)"),
		ns("pmemobj.tx_commit_ns.1r", "unit: Tx.Commit after 1 AddRange of 64 B"),
		ns("pmemobj.tx_commit_ns.4r", "unit: Tx.Commit after 4 AddRange"),
		ns("pmemobj.tx_commit_ns.16r", "unit: Tx.Commit after 16 AddRange"),
		ns("pmemobj.tx_alloc_ns.1k", "unit: Tx.Alloc(1024)"),
		ns("pmemobj.open_ns", "unit: OpenConfig (recovery + heap rebuild) on a crashed 2000-key image"),
		metricDef{Name: "pmemobj.undo_bytes_per_put", Unit: "B", Help: "replay: spp_tx_undo_bytes sum per Put"},
		cnt("pmemobj.redo_entries_per_put", "replay: spp_redo_entries sum per Put"),
		cnt("pmemobj.ranges_deduped_per_put", "replay: spp_tx_ranges_deduped_total per Put"),
		metricDef{Name: "pmemobj.lane_affinity_hit_ratio", Unit: "ratio", Better: "higher", Help: "replay: affine lane hits / all lane acquires"},
		metricDef{Name: "pmemobj.steal_ratio", Unit: "ratio", Help: "replay: reservations served by a non-affine arena / all reservations"},
		ns("pmemobj.tx_commit_phase_ns", "replay: trace PhaseTxCommit per Put"),
		metricDef{Name: "pmemobj.space_used_bytes", Unit: "B", Help: "replay: Pool.Stats().AllocatedBytes at end of replay"},
	)
	add("pmem", "ops_per_s -> durable_write", "every untracked workload (prediction: no change)",
		cnt("pmem.flushes_per_put", "replay: spp_dev_flushes_total per Put"),
		cnt("pmem.fences_per_put", "replay: spp_dev_fences_total per Put"),
		metricDef{Name: "pmem.store_bytes_per_put", Unit: "B", Help: "replay: device store bytes per Put"},
		metricDef{Name: "pmem.write_amp", Unit: "ratio", Help: "replay: device store bytes / user bytes put"},
		cnt("pmem.flushes_coalesced_per_put", "replay: flush requests merged by the accumulator per Put"),
		cnt("pmem.fences_shared_per_put", "replay: fences answered by the group combiner per Put"),
		ns("pmem.flush_phase_ns", "replay: trace PhaseFlush per Put"),
		ns("pmem.fence_phase_ns", "replay: trace PhaseFence per Put"),
		ns("pmem.flush_ns.tracked", "unit: Pool.Flush of one line, tracking on"),
		ns("pmem.fence_ns.tracked", "unit: Pool.Fence with one pending line, tracking on"),
		ns("pmem.write_u64_ns.tracked", "unit: Pool.WriteU64, tracking on"),
		ns("pmem.write_u64_ns.fast", "unit: Pool.WriteU64, tracking off"),
	)
	for _, kind := range indices.Kinds {
		for _, op := range indexOps {
			for _, v := range []string{"pmdk", "spp"} {
				add("indices", "spp_slowdown, ops_per_s -> paper_indices", "all KV workloads",
					ns(indexCellMetric(kind, op, v), "replay: ns per "+op+", one traced pass"))
			}
		}
	}
	add("ir/analysis/transform/interp", "compile_ms, run_ms -> ir_exec", "all others",
		us("ir.parse_us", "replay: ir.Parse, whole corpus"),
		us("analysis.provenance_us", "replay: analysis.PointerProvenance, whole corpus"),
		us("analysis.ranges_us", "replay: analysis.InferRanges over every function"),
		us("analysis.loops_us", "replay: BuildCFG + Dominators + FindLoops + IndVars over every function"),
		us("analysis.persist_us", "replay: analysis.AnalyzePersistence over every function"),
		us("transform.apply_us", "replay: transform.Apply, whole corpus"),
		cnt("transform.checks_static", "replay: Stats.CheckBounds left in the instrumented corpus"),
		metricDef{Name: "transform.checks_elided", Unit: "count", Better: "higher", Help: "replay: checks removed by range proof, preemption, hoisting and widening"},
		metricDef{Name: "transform.flushes_elided", Unit: "count", Better: "higher", Help: "replay: Stats.FlushesElided"},
		metricDef{Name: "transform.widened_checks", Unit: "count", Better: "higher", Help: "replay: Stats.WidenedIVChecks"},
		us("interp.compile_us", "replay: Machine.CompileAll, whole corpus"),
		metricDef{Name: "interp.compiled_funcs", Unit: "count", Better: "higher", Help: "replay: CompileStats.Funcs"},
		cnt("interp.fallback_funcs", "replay: CompileStats.Fallbacks"),
		metricDef{Name: "interp.run_ms.reference", Unit: "ms", Help: "replay: reference interpreter (NoCompile) run of the corpus under SPP"},
		cnt("interp.hooks_per_iter", "replay: SPP hook invocations per kernel iteration (telemetry counters)"),
	)
	add("overhead/runtime", "get_p99_us -> serve_* (GC); the two overheads are ROADMAP aim-4 ledger rows", "",
		metricDef{Name: "telemetry.on_slowdown", Unit: "ratio", Help: "replay (serve_read): ops/s with telemetry off / on"},
		metricDef{Name: "trace.on_slowdown", Unit: "ratio", Help: "replay (serve_read): ops/s with telemetry on / telemetry on + TraceSample=1"},
		cnt("go.mallocs_per_op", "replay: runtime.MemStats.Mallocs delta per replayed op"),
	)
	return out
}

// catalogMarkdown renders the README's metric catalogue.
func catalogMarkdown() string {
	var b strings.Builder
	b.WriteString("| workload | what runs | why |\n|---|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", w.Name, w.What, w.Why)
	}
	b.WriteString("\n| end-to-end metric | unit | better | bound | in BENCHMARK.json | measured by | definition |\n|---|---|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		section := "end_to_end"
		if m.Demoted {
			section = "per_layer (demoted)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Bound, section,
			strings.Join(m.Homes, ", "), m.Help)
	}
	b.WriteString("\n| per-layer metric | layer | unit | better | definition | should move | should not move on |\n|---|---|---|---|---|---|---|\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s |\n", m.Name, m.Layer, m.Unit, m.Better, m.Help, m.Moves, m.NotOn)
	}
	return b.String()
}
