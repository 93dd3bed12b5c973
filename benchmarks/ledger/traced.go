package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/client"
	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/indices"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/variant"
	"repro/internal/wire"
)

// The traced run. It is its own process: telemetry is enabled before
// any device exists (a device latches the gate at creation), the
// server samples every request, one connection / goroutine replays a
// fixed number of ops of the workload's seeded sequence so counts
// repeat exactly, and every layer is measured from outside — spans
// around calls into exported functions, and the counters the program
// already exports. End-to-end numbers never come from here.

// tracedOps is the fixed op count of each workload's replay. A scan
// costs milliseconds, so serve_scan replays a tenth of the others.
var tracedOps = map[string]int{
	wServeRead: 20000, wServeWrite: 20000, wServeScan: 2000,
	wEmbedKV: 20000, wDurableWrite: 20000,
}

// tracedSizes scales the traced run's fixed work down by div (1 in
// real runs; the smoke test uses a fiftieth).
type tracedSizes struct{ div int }

func (t tracedSizes) ops(workload string) int { return max(40, tracedOps[workload]/t.div) }
func (t tracedSizes) keys() int               { return max(400, keySpace/t.div) }

// span is one recorded interval. Spans of one replayed op share Req;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent, req uint64) uint64 {
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(time.Since(l.epoch))})
	return id
}

func (l *spanLog) end(id uint64) { l.spans[id-1].End = int64(time.Since(l.epoch)) }

// selfTimes returns, per span name, the mean self time (duration minus
// the part covered by child spans) and the mean duration.
func (l *spanLog) selfTimes() (self, total map[string]float64) {
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		child[s.Parent] += s.End - s.Start
	}
	sumSelf, sumTotal, count := map[string]int64{}, map[string]int64{}, map[string]int64{}
	for _, s := range l.spans {
		d := s.End - s.Start
		sumTotal[s.Name] += d
		sumSelf[s.Name] += d - child[s.ID]
		count[s.Name]++
	}
	self, total = map[string]float64{}, map[string]float64{}
	for name, n := range count {
		self[name] = float64(sumSelf[name]) / float64(n)
		total[name] = float64(sumTotal[name]) / float64(n)
	}
	return self, total
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultsDir is where span files go: benchmarks/results, found from
// the repo root or from inside benchmarks/.
func resultsDir() string {
	if _, err := os.Stat("benchmarks/ledger"); err == nil {
		return "benchmarks/results"
	}
	return "results"
}

// probe indices: counters the program exports, read around each
// replayed op so deltas can be attributed to the op's kind.
const (
	pChecks = iota
	pGeps
	pMemIntrs
	pTx
	pAllocs
	pFrees
	pAllocBytes
	pUndoBytes
	pRedoEntries
	pDeduped
	pFlushes
	pFences
	pStoreBytes
	pCoalesced
	pShared
	pPhaseCommit
	pPhaseFlush
	pPhaseFence
	pPhaseMaint
	numProbes
)

type probes struct {
	counters [pPhaseCommit][]func() uint64
}

func counter(name string) func() uint64 { return telemetry.Default.Counter(name, "").Load }

func newProbes() *probes {
	p := &probes{}
	vec := func(name, label, value string) func() uint64 {
		return telemetry.Default.CounterVec(name, "", label).With(value).Load
	}
	p.counters[pChecks] = []func() uint64{counter("spp_hook_checkbound_total"), counter("spp_hook_checkbound_pm_total")}
	p.counters[pGeps] = []func() uint64{counter("spp_hook_updatetag_total")}
	p.counters[pMemIntrs] = []func() uint64{counter("spp_hook_memintr_total")}
	p.counters[pTx] = []func() uint64{counter("spp_tx_begin_total")}
	p.counters[pAllocs] = []func() uint64{counter("spp_alloc_total")}
	p.counters[pFrees] = []func() uint64{counter("spp_free_total")}
	p.counters[pAllocBytes] = []func() uint64{counter("spp_alloc_bytes_total")}
	p.counters[pUndoBytes] = []func() uint64{telemetry.Default.Histogram("spp_tx_undo_bytes", "").Sum}
	p.counters[pRedoEntries] = []func() uint64{telemetry.Default.Histogram("spp_redo_entries", "").Sum}
	p.counters[pDeduped] = []func() uint64{counter("spp_tx_ranges_deduped_total")}
	p.counters[pFlushes] = []func() uint64{counter("spp_dev_flushes_total")}
	p.counters[pFences] = []func() uint64{counter("spp_dev_fences_total")}
	p.counters[pStoreBytes] = []func() uint64{
		vec("spp_dev_store_bytes_total", "path", "fast"), vec("spp_dev_store_bytes_total", "path", "tracked")}
	p.counters[pCoalesced] = []func() uint64{counter("spp_dev_flushes_coalesced_total")}
	p.counters[pShared] = []func() uint64{counter("spp_dev_fences_shared_total")}
	return p
}

func (p *probes) read(dst *[numProbes]uint64) {
	for i := range p.counters {
		var v uint64
		for _, f := range p.counters[i] {
			v += f()
		}
		dst[i] = v
	}
	t := trace.Snapshot()
	dst[pPhaseCommit] = t.Phase[trace.PhaseTxCommit]
	dst[pPhaseFlush] = t.Phase[trace.PhaseFlush]
	dst[pPhaseFence] = t.Phase[trace.PhaseFence]
	dst[pPhaseMaint] = t.Phase[trace.PhaseMaint]
}

// kvReplaySpec describes how a KV workload replays on a staged store.
type kvReplaySpec struct {
	mix       mix
	valueSize int
	tracked   bool // durable_write's device tracks persistence
	wire      bool // serve_*: run the four wire stages around the store op
}

var kvReplaySpecs = map[string]kvReplaySpec{
	wServeRead:    {mix: serveSpecs[wServeRead].mix, valueSize: 256, wire: true},
	wServeWrite:   {mix: serveSpecs[wServeWrite].mix, valueSize: 1024, wire: true},
	wServeScan:    {mix: serveSpecs[wServeScan].mix, valueSize: 256, wire: true},
	wEmbedKV:      {mix: embedMix, valueSize: embedValueSize},
	wDurableWrite: {mix: mix{put: 100}, valueSize: durableValueSize, tracked: true},
}

// stagedStore builds an environment exactly as server.openTenant does
// — variant.Format on a fresh device, kvstore.Open with the default
// shard count — and preloads it.
func stagedStore(spec kvReplaySpec, keys int, seed uint64) (*variant.Env, *kvstore.Store, error) {
	size := scale{keys: keys}.poolSize()
	dev := pmem.NewPool("tenant:"+serveTenant, size)
	env, err := variant.Format(variant.SPP, dev, variant.Options{PoolSize: size, Knobs: engine.Knobs{Telemetry: true}})
	if err != nil {
		return nil, nil, err
	}
	st, err := kvstore.Open(env.RT)
	if err != nil {
		return nil, nil, err
	}
	if spec.tracked {
		dev.EnableTracking(nil)
	}
	kbuf, vbuf := make([]byte, keyLen), make([]byte, spec.valueSize)
	for k := 0; k < keys; k++ {
		key := putKey(kbuf, k)
		fillValue(vbuf, key, 0, seed)
		if err := st.Put(key, vbuf); err != nil {
			return nil, nil, fmt.Errorf("staged preload key %d: %w", k, err)
		}
	}
	return env, st, nil
}

// executeStaged applies one decoded request to the store the way
// server.execute does, so the staged response is byte-for-byte what
// the server would send.
func executeStaged(st *kvstore.Store, req wire.Request, tr *trace.Req) (wire.Response, int) {
	fail := func(err error) (wire.Response, int) {
		return wire.Response{Status: wire.StatusError, Payload: []byte(err.Error())}, 0
	}
	switch req.Op {
	case wire.OpGet:
		v, ok, err := st.Get(req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}, 0
		}
		return wire.Response{Status: wire.StatusOK, Payload: v}, 0
	case wire.OpPut:
		if err := st.PutTraced(tr, req.Key, req.Value); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}, 0
	case wire.OpDelete:
		ok, err := st.DeleteTraced(tr, req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}, 0
		}
		return wire.Response{Status: wire.StatusOK}, 0
	case wire.OpScan:
		budget := wire.MaxFrame - 1
		var payload []byte
		var n uint32
		err := st.Scan(req.Key, req.Hi, func(k, v []byte) bool {
			if wire.ScanPairSize(len(k), len(v)) > budget-len(payload) {
				return false
			}
			payload = wire.AppendScanPair(payload, k, v)
			n++
			return req.Limit == 0 || n < req.Limit
		})
		if err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK, Payload: payload}, int(n)
	}
	return fail(fmt.Errorf("unhandled op %d", req.Op))
}

var wireOps = [numOpKinds]byte{wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpScan}

// buildRequest turns a generated op into the request a client would
// send; vbuf and hibuf are reused.
func buildRequest(o op, key, hibuf, vbuf []byte, version, seed uint64) wire.Request {
	req := wire.Request{Op: wireOps[o.kind], Tenant: serveTenant, Key: key}
	switch o.kind {
	case opPut:
		fillValue(vbuf, key, version, seed)
		req.Value = vbuf
	case opScan:
		req.Hi = putKey(hibuf, o.key+scanSpan)
		req.Limit = scanSpan
	}
	return req
}

// checkResponse verifies a replayed response like the end-to-end run
// verifies a live one.
func checkResponse(o op, req wire.Request, resp wire.Response, spec kvReplaySpec, keys int, seed uint64, r *result) {
	sspec := serveSpec{mix: spec.mix, valueSize: spec.valueSize}
	switch {
	case resp.Status == wire.StatusError || resp.Status == wire.StatusOverloaded:
		r.fail("%s %s: status %d %s", opNames[o.kind], req.Key, resp.Status, resp.Payload)
	case o.kind == opGet && resp.Status == wire.StatusNotFound:
		if spec.mix.del == 0 {
			r.fail("get %s: missing", req.Key)
		}
	case o.kind == opGet:
		if _, good := checkValue(resp.Payload, req.Key, spec.valueSize, seed); !good {
			r.fail("get %s: wrong value", req.Key)
		}
	case o.kind == opScan:
		kvs, err := wire.ParseScanResult(resp.Payload)
		if err != nil {
			r.fail("scan %s: %v", req.Key, err)
			return
		}
		checkScan(kvs, req.Key, req.Hi, min(scanSpan, keys-o.key), sspec, seed, r)
	}
}

// replayKV replays the workload's op sequence stage by stage on a
// staged store, under a parent "request" span per op, reading the
// exported counters around the kvstore stage. It fills the kvstore,
// hooks, pmemobj, pmem and (for serve workloads) wire rows.
func replayKV(name string, seed uint64, sz tracedSizes, log *spanLog, r *result) error {
	spec := kvReplaySpecs[name]
	keys := sz.keys()
	ops := opSequence(seed, 1, spec.mix, keys, sz.ops(name))
	env, st, err := stagedStore(spec, keys, seed)
	if err != nil {
		return err
	}
	pr := newProbes()
	var before, after [numProbes]uint64
	var acc [numOpKinds][numProbes]uint64
	var count [numOpKinds]int64
	var reqBytes, respBytes, scanPairs int64
	var kept []struct {
		req  []byte
		resp []byte
	}
	kbuf, hibuf, vbuf := make([]byte, keyLen), make([]byte, keyLen), make([]byte, spec.valueSize)
	var frame []byte
	var respBuf bytes.Buffer
	before0 := telemetry.Default.Snapshot()

	for i, o := range ops {
		id := uint64(i + 1)
		key := putKey(kbuf, o.key)
		req := buildRequest(o, key, hibuf, vbuf, id, seed)
		root := log.begin("request", 0, id)
		if spec.wire {
			s := log.begin("wire.encode_req", root, id)
			frame, err = wire.AppendRequest(frame[:0], req)
			log.end(s)
			if err != nil {
				return err
			}
			s = log.begin("wire.decode_req", root, id)
			req, err = wire.ReadRequest(bytes.NewReader(frame))
			log.end(s)
			if err != nil {
				return err
			}
			reqBytes += int64(len(frame))
		}
		pr.read(&before)
		s := log.begin("kvstore."+opNames[o.kind], root, id)
		var tr *trace.Req
		if o.kind == opPut || o.kind == opDelete {
			tr = trace.Start(id, opNames[o.kind], serveTenant)
		}
		resp, pairs := executeStaged(st, req, tr)
		log.end(s)
		tr.Finish()
		pr.read(&after)
		for p := range acc[o.kind] {
			acc[o.kind][p] += after[p] - before[p]
		}
		count[o.kind]++
		scanPairs += int64(pairs)
		if spec.wire {
			respBuf.Reset()
			s := log.begin("wire.encode_resp", root, id)
			err = wire.WriteResponse(&respBuf, resp)
			log.end(s)
			if err != nil {
				return err
			}
			s = log.begin("wire.decode_resp", root, id)
			resp, err = wire.ReadResponse(bytes.NewReader(respBuf.Bytes()))
			if err == nil && o.kind == opScan {
				_, err = wire.ParseScanResult(resp.Payload)
			}
			log.end(s)
			if err != nil {
				return err
			}
			respBytes += int64(respBuf.Len())
			if len(kept) < 2000 {
				kept = append(kept, struct{ req, resp []byte }{append([]byte(nil), frame...), append([]byte(nil), respBuf.Bytes()...)})
			}
		}
		log.end(root)
		checkResponse(o, req, resp, spec, keys, seed, r)
	}
	r.Attempted += int64(len(ops))

	m := r.Metrics
	self, total := log.selfTimes()
	n := float64(len(ops))
	for k, name := range opNames {
		if count[k] > 0 {
			m["kvstore."+name+"_ns"] = value{V: total["kvstore."+name], N: int(count[k])}
		}
	}
	if c := count[opScan]; c > 0 {
		m["kvstore.scan_pairs_per_call"] = value{V: float64(scanPairs) / float64(c), N: int(c)}
	}
	per := func(kind opKind, p int) value {
		if count[kind] == 0 {
			return value{}
		}
		return value{V: float64(acc[kind][p]) / float64(count[kind]), N: int(count[kind])}
	}
	m["hooks.checks_per_get"], m["hooks.geps_per_get"], m["hooks.memintrs_per_get"] = per(opGet, pChecks), per(opGet, pGeps), per(opGet, pMemIntrs)
	for metric, p := range map[string]int{
		"hooks.checks_per_put": pChecks, "hooks.geps_per_put": pGeps, "hooks.memintrs_per_put": pMemIntrs,
		"kvstore.tx_per_put": pTx, "kvstore.pm_allocs_per_put": pAllocs, "kvstore.pm_frees_per_put": pFrees,
		"kvstore.pm_alloc_bytes_per_put": pAllocBytes, "kvstore.maint_ns": pPhaseMaint,
		"pmemobj.undo_bytes_per_put": pUndoBytes, "pmemobj.redo_entries_per_put": pRedoEntries,
		"pmemobj.ranges_deduped_per_put": pDeduped, "pmemobj.tx_commit_phase_ns": pPhaseCommit,
		"pmem.flushes_per_put": pFlushes, "pmem.fences_per_put": pFences, "pmem.store_bytes_per_put": pStoreBytes,
		"pmem.flushes_coalesced_per_put": pCoalesced, "pmem.fences_shared_per_put": pShared,
		"pmem.flush_phase_ns": pPhaseFlush, "pmem.fence_phase_ns": pPhaseFence,
	} {
		m[metric] = per(opPut, p)
	}
	if count[opPut] > 0 {
		m["pmem.write_amp"] = single(m["pmem.store_bytes_per_put"].V / float64(keyLen+spec.valueSize))
	}
	// hooks.time_share_get: what the hooks a Get executes would cost
	// at their isolated unit price, as a share of the Get.
	if g := m["kvstore.get_ns"].V; g > 0 {
		hookNS := m["hooks.checks_per_get"].V*m["hooks.check_ns.spp"].V +
			m["hooks.geps_per_get"].V*m["hooks.gep_ns.spp"].V +
			m["hooks.memintrs_per_get"].V*m["hooks.memintr_ns.spp"].V
		m["hooks.time_share_get"] = single(hookNS / g)
	}
	d := telemetry.Default.Snapshot().Delta(before0)
	sumPrefix := func(prefix string) float64 {
		var s int64
		for k, v := range d {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return float64(s)
	}
	if lanes := sumPrefix("spp_lane_affinity_hits_total") + sumPrefix("spp_lane_scan_hits_total") + sumPrefix("spp_lane_channel_total"); lanes > 0 {
		m["pmemobj.lane_affinity_hit_ratio"] = single(sumPrefix("spp_lane_affinity_hits_total") / lanes)
	}
	if res := sumPrefix("spp_arena_alloc_total"); res > 0 {
		m["pmemobj.steal_ratio"] = single(sumPrefix("spp_steal_success_total") / res)
	}
	m["pmemobj.space_used_bytes"] = single(float64(env.Pool.Stats().AllocatedBytes))

	// Snapshot reads on a pinned view of the replayed store.
	sn := st.Snapshot()
	m["kvstore.snap_get_ns"] = unitNS(keys/10, func(n int) {
		for i := 0; i < n; i++ {
			v, _, _ := sn.Get(putKey(kbuf, i))
			sink += uint64(len(v))
		}
	})
	if err := sn.Release(); err != nil {
		return err
	}

	if spec.wire {
		for _, stage := range []string{"encode_req", "decode_req", "encode_resp", "decode_resp"} {
			m["wire."+stage+"_ns"] = value{V: self["wire."+stage], N: len(ops)}
		}
		m["wire.req_bytes"] = single(float64(reqBytes) / n)
		m["wire.resp_bytes"] = single(float64(respBytes) / n)
		// Mallocs of the wire stages alone, over the kept frames.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, k := range kept {
			// The frames decoded cleanly once already; re-encoding what
			// was decoded cannot fail either.
			rq, _ := wire.ReadRequest(bytes.NewReader(k.req))
			frame, _ = wire.AppendRequest(frame[:0], rq)
			rs, _ := wire.ReadResponse(bytes.NewReader(k.resp))
			respBuf.Reset()
			_ = wire.WriteResponse(&respBuf, rs)
			sink += uint64(len(frame) + respBuf.Len())
		}
		runtime.ReadMemStats(&ms1)
		m["wire.mallocs_per_op"] = single(float64(ms1.Mallocs-ms0.Mallocs) / float64(len(kept)))
	}
	return nil
}

// replayLive sends the same op sequence through a live traced server
// on one connection, each op under a client.roundtrip span, and fills
// the client and server rows.
func replayLive(name string, seed uint64, sz tracedSizes, log *spanLog, r *result) error {
	spec := serveSpecs[name]
	sc := scale{keys: sz.keys()}
	env, err := setupServe(spec, sc, seed, engine.Knobs{Telemetry: true, TraceSample: 1})
	if err != nil {
		return err
	}
	defer env.close()
	cl, err := client.Dial(env.addr, serveTenant)
	if err != nil {
		return err
	}
	defer cl.Close()
	ops := opSequence(seed, 1, spec.mix, sc.keys, sz.ops(name))
	w := newServeWorker(spec, seed, 0)
	w.res = r
	t0 := trace.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, o := range ops {
		id := uint64(i + 1)
		s := log.begin("client.roundtrip", 0, id)
		w.do(cl, spec, sc, seed, o)
		log.end(s)
	}
	runtime.ReadMemStats(&ms1)
	r.Attempted += int64(len(ops))
	td := trace.Snapshot().Delta(t0)
	m := r.Metrics
	n := float64(len(ops))
	_, total := log.selfTimes()
	m["client.roundtrip_ns"] = value{V: total["client.roundtrip"], N: len(ops)}
	m["client.mallocs_per_op"] = single(float64(ms1.Mallocs-ms0.Mallocs) / n)
	if td.Count > 0 {
		m["server.queue_ns"] = value{V: float64(td.Phase[trace.PhaseQueue]) / float64(td.Count), N: int(td.Count)}
		m["server.exec_ns"] = value{V: float64(td.Phase[trace.PhaseExec]) / float64(td.Count), N: int(td.Count)}
	}
	return nil
}

// serveOverheads measures serve_read throughput with telemetry off, on,
// and on with every request traced, each on a fresh server (a device
// latches the telemetry gate when it is created).
func serveOverheads(seed uint64, sz tracedSizes, m map[string]value) error {
	spec := serveSpecs[wServeRead]
	sc := scale{keys: sz.keys(), ops: 120000 / sz.div, windows: 8}
	rate := func(knobs engine.Knobs) (float64, error) {
		env, err := setupServe(spec, sc, seed, knobs)
		if err != nil {
			return 0, err
		}
		defer env.close()
		r := newResult(wServeRead)
		if err := runServePhase(env, spec, sc, seed, r); err != nil {
			return 0, err
		}
		if r.Failed > 0 {
			return 0, fmt.Errorf("overhead phase: %d ops failed: %v", r.Failed, r.Notes)
		}
		return r.Metrics["ops_per_s"].V, nil
	}
	telemetry.Disable()
	off, err := rate(engine.Knobs{})
	telemetry.Enable()
	if err != nil {
		return err
	}
	on, err := rate(engine.Knobs{Telemetry: true})
	if err != nil {
		return err
	}
	traced, err := rate(engine.Knobs{Telemetry: true, TraceSample: 1})
	if err != nil {
		return err
	}
	m["telemetry.on_slowdown"] = single(off / on)
	m["trace.on_slowdown"] = single(on / traced)
	return nil
}

// replayIndices runs one warm-up and one traced pass of Fig. 4 under
// pmdk and spp, one span per cell.
func replayIndices(seed uint64, sz tracedSizes, log *spanLog, r *result) error {
	keys := indexKeys(seed, indexKeyCount/sz.div)
	env, err := setupIndices(indexVariants[:2], len(keys))
	if err != nil {
		return err
	}
	if _, err := indexPass(env, keys, 0, newResult(wPaperIndices)); err != nil {
		return err
	}
	root := log.begin("indices.pass", 0, 1)
	cells, err := indexPass(env, keys, 0, r)
	log.end(root)
	if err != nil {
		return err
	}
	for v := range cells {
		for k, kind := range indices.Kinds {
			for o, opName := range indexOps {
				r.Metrics[indexCellMetric(kind, opName, string(indexVariants[v]))] = value{V: cells[v][k][o], N: len(keys)}
			}
		}
	}
	return nil
}

// replayIR times each compiler stage through its exported entry point
// over the corpus, and counts the hooks a compiled SPP run executes.
func replayIR(sz tracedSizes, log *spanLog, r *result) error {
	progs, err := loadCorpus()
	if err != nil {
		return err
	}
	m := r.Metrics
	const reps = 5
	stage := func(name string, fn func() error) error {
		xs := make([]float64, reps)
		for i := range xs {
			s := log.begin(name, 0, uint64(i+1))
			err := fn()
			log.end(s)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sp := log.spans[s-1]
			xs[i] = float64(sp.End-sp.Start) / 1e3
		}
		m[name] = medianOf(xs)
		return nil
	}
	mods := make([]*ir.Module, len(progs))
	if err := stage("ir.parse_us", func() error {
		for i, p := range progs {
			if mods[i], err = ir.Parse(p.src); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	eachFunc := func(fn func(f *ir.Func)) func() error {
		return func() error {
			for _, mod := range mods {
				for _, f := range mod.Funcs {
					if !f.External {
						fn(f)
					}
				}
			}
			return nil
		}
	}
	if err := stage("analysis.provenance_us", func() error {
		for _, mod := range mods {
			analysis.PointerProvenance(mod, true)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := stage("analysis.ranges_us", eachFunc(func(f *ir.Func) { analysis.InferRanges(f) })); err != nil {
		return err
	}
	if err := stage("analysis.loops_us", eachFunc(func(f *ir.Func) {
		cfg := analysis.BuildCFG(f)
		li := analysis.FindLoops(cfg, analysis.Dominators(cfg))
		for _, l := range li.Loops {
			li.IndVars(l)
		}
	})); err != nil {
		return err
	}
	if err := stage("analysis.persist_us", eachFunc(func(f *ir.Func) { analysis.AnalyzePersistence(f) })); err != nil {
		return err
	}
	instrumented := make([]*ir.Module, len(mods))
	var stats transform.Stats
	if err := stage("transform.apply_us", func() error {
		stats = transform.Stats{}
		for i, mod := range mods {
			out, st, err := transform.Apply(mod, transform.Options{})
			if err != nil {
				return err
			}
			instrumented[i] = out
			stats.CheckBounds += st.CheckBounds
			stats.RangeElidedChecks += st.RangeElidedChecks + st.Preempted + st.Hoisted + st.LoopInvariantHoisted + st.WidenedIVChecks
			stats.FlushesElided += st.FlushesElided
			stats.WidenedIVChecks += st.WidenedIVChecks
		}
		return nil
	}); err != nil {
		return err
	}
	m["transform.checks_static"] = single(float64(stats.CheckBounds))
	m["transform.checks_elided"] = single(float64(stats.RangeElidedChecks))
	m["transform.flushes_elided"] = single(float64(stats.FlushesElided))
	m["transform.widened_checks"] = single(float64(stats.WidenedIVChecks))

	env, err := newIREnv(variant.SPP)
	if err != nil {
		return err
	}
	var cstats interp.CompileStats
	if err := stage("interp.compile_us", func() error {
		cstats = interp.CompileStats{}
		for _, mod := range instrumented {
			st := interp.New(mod, env).CompileAll()
			cstats.Funcs += st.Funcs
			cstats.Fallbacks += st.Fallbacks
		}
		return nil
	}); err != nil {
		return err
	}
	m["interp.compiled_funcs"] = single(float64(cstats.Funcs))
	m["interp.fallback_funcs"] = single(float64(cstats.Fallbacks))

	// One compiled run under SPP, checked against the reference
	// interpreter at a tenth of the end-to-end iteration count (the
	// interpreter is several times slower).
	iters := max(5, irIters/10/uint64(sz.div))
	machines, err := compileCorpus(progs, env, iters, false)
	if err != nil {
		return err
	}
	hookCount := func() uint64 {
		return counter("spp_hook_checkbound_total")() + counter("spp_hook_checkbound_pm_total")() +
			counter("spp_hook_updatetag_total")() + counter("spp_hook_memintr_total")() +
			counter("spp_hook_cleantag_external_total")()
	}
	h0 := hookCount()
	s := log.begin("interp.run.compiled", 0, 1)
	got, _, err := runCorpus(machines)
	log.end(s)
	if err != nil {
		return err
	}
	kernelIters := 0
	for _, km := range machines {
		if len(km.args) == 1 {
			kernelIters += int(iters)
		}
	}
	m["interp.hooks_per_iter"] = single(float64(hookCount()-h0) / float64(kernelIters))
	s = log.begin("interp.run.reference", 0, 1)
	want, took, err := irReference(progs, iters)
	log.end(s)
	if err != nil {
		return err
	}
	m["interp.run_ms.reference"] = single(took.Seconds() * 1e3)
	r.Attempted += int64(len(got))
	for i := range got {
		if got[i] != want[i] {
			r.fail("%s: compiled result %d, reference %d", progs[i].name, got[i], want[i])
		}
	}
	return nil
}

// runTraced measures one workload's per-layer metrics; span files go
// to dir.
func runTraced(name string, seed uint64, div int, dir string) (*result, error) {
	r := newResult(name)
	m := r.Metrics
	sz := tracedSizes{div}
	if name == wServeRead {
		// First, while devices can still be built with telemetry off.
		if err := serveOverheads(seed, sz, m); err != nil {
			return nil, fmt.Errorf("overheads: %w", err)
		}
	}
	telemetry.Enable()
	if err := runUnits(m, sz.div); err != nil {
		return nil, err
	}
	log := newSpanLog(8 * sz.ops(name))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var err error
	switch name {
	case wServeRead, wServeWrite, wServeScan:
		if err = replayLive(name, seed, sz, log, r); err == nil {
			err = replayKV(name, seed, sz, log, r)
		}
		if err == nil {
			// The unaccounted row: what a round trip costs beyond the
			// layers timed one by one — syscalls, wake-ups, dispatch.
			self, total := log.selfTimes()
			known := total["request"] - self["request"]
			residual := m["client.roundtrip_ns"].V - known
			m["server.residual_ns"] = single(residual)
			logf("%s: round trip %.0f ns = staged request %.0f ns + residual %.0f ns (%.0f%% of the round trip unaccounted)",
				name, m["client.roundtrip_ns"].V, known, residual, 100*residual/m["client.roundtrip_ns"].V)
		}
	case wEmbedKV, wDurableWrite:
		err = replayKV(name, seed, sz, log, r)
	case wPaperIndices:
		err = replayIndices(seed, sz, log, r)
	case wIRExec:
		err = replayIR(sz, log, r)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m["go.mallocs_per_op"] = single(float64(ms1.Mallocs-ms0.Mallocs) / float64(max(r.Attempted, 1)))
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	if err := log.write(path); err != nil {
		return nil, err
	}
	logf("%s: %d spans written to %s", name, len(log.spans), path)
	return r, nil
}
