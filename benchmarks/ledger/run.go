package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// keySpace is the preloaded key space of every KV workload.
const keySpace = 20000

// kvPoolSize holds 20000 x 1-KiB values plus their copy-on-write
// churn with room to spare.
const kvPoolSize = 128 << 20

// poolSize is the KV pool size at this scale: the full size for the
// full key space, proportionally less (never under 16 MiB) for laps.
func (sc scale) poolSize() uint64 {
	return max(16<<20, uint64(kvPoolSize)*uint64(sc.keys)/keySpace)
}

// scale sizes one scenario run. A measured phase is time-bounded (dur
// > 0, the real workloads) or op-bounded (dur == 0: the reference laps
// of paper_indices and durable_write and the traced run's overhead
// phases, where the amount of work is fixed).
type scale struct {
	keys int
	// dur is the length of the measured phase.
	dur time.Duration
	// ops bounds an op-bounded phase: total ops for the serve
	// scenarios, puts per crash cycle for durable_write.
	ops int
	// windows is the number of windows / passes / crash cycles of an
	// op-bounded phase (time-bounded phases derive it from dur).
	windows int
	// iters is the per-kernel iteration count for ir_exec.
	iters uint64
	// setupReps is how many times set-up is run and timed; the median
	// is reported.
	setupReps int
}

// fullScale is a workload at its documented size for a measured phase
// of length d.
func fullScale(d time.Duration) scale {
	sc := scale{keys: keySpace, dur: d, setupReps: 5, iters: irIters}
	if d < 5*time.Second {
		// Smoke runs: shrink the fixed-size parts with the duration so
		// a 200 ms run stays a 200 ms run.
		f := float64(d) / float64(5*time.Second)
		sc.keys = max(200, int(float64(keySpace)*f))
		sc.iters = max(10, uint64(float64(irIters)*f))
		sc.setupReps = 1
	}
	return sc
}

// result is what one scenario run reports.
type result struct {
	Workload  string           `json:"workload"`
	Metrics   map[string]value `json:"metrics"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	// Notes carry the first few failure descriptions.
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]value{}}
}

func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed ops under one note.
func (r *result) failN(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 5 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// timedSetup runs setup at least reps times — and, when set-up is
// cheap, up to four times as often within a 1.5 s budget, because a
// 100 ms set-up is mostly page faults and GC and a few samples of it
// do not give a steady median — tearing down all but the last. The
// median duration is recorded as setup_s.
func timedSetup[T any](r *result, reps int, setup func() (T, error), teardown func(T)) (T, error) {
	var zero, last T
	var secs []float64
	var spent time.Duration
	for i := 0; i < max(reps, 1) || (reps > 1 && i < 4*reps && spent < 1500*time.Millisecond); i++ {
		if i > 0 {
			teardown(last)
			last = zero
			// Hand the freed pools back to the OS, so that every
			// repetition maps fresh zero pages like the first did
			// instead of some of them re-zeroing recycled spans.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		env, err := setup()
		if err != nil {
			return zero, fmt.Errorf("%s set-up: %w", r.Workload, err)
		}
		took := time.Since(t0)
		spent += took
		secs = append(secs, took.Seconds())
		last = env
	}
	r.Metrics["setup_s"] = medianOf(secs)
	return last, nil
}

// allocMeter measures Go allocation over a phase.
type allocMeter struct{ before runtime.MemStats }

func startAllocMeter() *allocMeter {
	m := &allocMeter{}
	runtime.ReadMemStats(&m.before)
	return m
}

// bytes is TotalAlloc growth since start.
func (m *allocMeter) bytes() uint64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.TotalAlloc - m.before.TotalAlloc
}

// bytesPerOp is TotalAlloc growth since start divided by ops.
func (m *allocMeter) bytesPerOp(ops int64) value {
	if ops == 0 {
		return value{}
	}
	return single(float64(m.bytes()) / float64(ops))
}

// scenario runs one workload at a scale.
type scenario func(sc scale, seed uint64) (*result, error)

var scenarios = map[string]scenario{
	wServeRead:    func(sc scale, seed uint64) (*result, error) { return runServe(serveSpecs[wServeRead], sc, seed) },
	wServeWrite:   func(sc scale, seed uint64) (*result, error) { return runServe(serveSpecs[wServeWrite], sc, seed) },
	wServeScan:    func(sc scale, seed uint64) (*result, error) { return runServe(serveSpecs[wServeScan], sc, seed) },
	wEmbedKV:      runEmbed,
	wPaperIndices: runIndices,
	wDurableWrite: runDurable,
	wIRExec:       runIR,
}
