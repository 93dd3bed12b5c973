// Package telemetry is the always-on observability substrate: a
// registry of cacheline-padded atomic counters, gauges and histograms
// with near-zero cost while disabled, a bounded audit trail of
// memory-safety violations (audit.go), and a flight recorder of recent
// allocator/tx/device events (flight.go).
//
// The design mirrors production memory-safety deployments (sampled
// always-on checking needs always-on accounting): every instrumented
// hot path pays exactly one atomic load and a predictable branch when
// telemetry is off, and one uncontended atomic add when it is on.
// Metric mutation never takes a lock; the registry lock covers only
// registration and snapshot iteration, so snapshots taken while every
// counter is being hammered are race-free by construction.
//
// Exposition surfaces: Registry.WriteProm emits the Prometheus text
// format (golden-tested so it cannot silently drift), Registry.String
// returns an expvar-compatible JSON object, and Serve (http.go) mounts
// both plus the pprof handlers.
package telemetry

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled is the global metrics gate. A single process-wide flag keeps
// the disabled fast path to one atomic load with no pointer chase.
var enabled atomic.Bool

// Enable turns metric collection on.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off. Collected values are kept.
func Disable() { enabled.Store(false) }

// On reports whether metric collection is enabled. Instrumentation
// sites with work beyond a counter bump (building labels, measuring
// sizes) should consult it before doing that work.
func On() bool { return enabled.Load() }

// pad fills a counter out to its own cacheline so that registering
// metrics contiguously never makes two hot counters false-share.
const padBytes = 56

// Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
	_ [padBytes]byte
}

// Inc adds one when telemetry is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// hookSampleMask is the 1-in-N sampling mask for IncSampled sites
// (N-1 for a power-of-two N, 0 for unsampled). One process-wide word:
// the hot sites load it with the same predictable-branch discipline as
// the enabled gate.
var hookSampleMask atomic.Uint64

// SetHookSampling makes IncSampled record one in n increments,
// weighted by n so totals stay unbiased. n is rounded up to a power of
// two; n <= 1 restores exact counting. On multi-core hardware the
// hottest per-access counters (the SPP hook counters) otherwise
// serialize every core on a handful of contended cachelines.
func SetHookSampling(n int) {
	if n <= 1 {
		hookSampleMask.Store(0)
		return
	}
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	hookSampleMask.Store(p - 1)
}

// HookSampling reports the effective sampling interval (1 = exact).
func HookSampling() int { return int(hookSampleMask.Load()) + 1 }

// IncSampled adds one statistically: with hook sampling at 1-in-N it
// adds N on a pseudo-randomly chosen 1/N of calls and nothing on the
// rest, trading per-increment accuracy for an uncontended fast path.
// The random draw is rand/v2's per-thread generator, so sampled sites
// share no mutable state at all between cores.
//
// The disabled gate is split from the sampling so it inlines into the
// hook sites: with telemetry off a checked access pays one load here,
// not a call.
func (c *Counter) IncSampled() {
	if enabled.Load() {
		c.incSampledOn()
	}
}

func (c *Counter) incSampledOn() {
	mask := hookSampleMask.Load()
	if mask == 0 {
		c.v.Add(1)
		return
	}
	if rand.Uint64()&mask == 0 {
		c.v.Add(mask + 1)
	}
}

// Add adds n when telemetry is enabled.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can move both ways.
type Gauge struct {
	v atomic.Int64
	_ [padBytes]byte
}

// Set stores v when telemetry is enabled.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative) when telemetry is enabled.
func (g *Gauge) Add(d int64) {
	if enabled.Load() {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets are the default histogram upper bounds: powers of four
// from 16 up, with a final overflow bucket. Suits byte and entry
// counts alike.
var histBuckets = []uint64{16, 64, 256, 1024, 4096, 16384, 65536}

// NSBuckets are upper bounds suited to nanosecond durations on the
// serve path: powers of four from 4µs to ~16.8ms. Latency histograms
// (request service time, trace phase spans) register with these.
var NSBuckets = []uint64{4096, 16384, 65536, 262144, 1 << 20, 1 << 22, 1 << 24}

// maxHistBuckets bounds the finite bucket count so the counter array
// stays a fixed-size, allocation-free struct field.
const maxHistBuckets = 7

// Histogram is a fixed-bucket histogram of uint64 observations. The
// default bounds are histBuckets; HistogramBuckets registers one with
// caller-chosen bounds.
type Histogram struct {
	bounds  []uint64 // nil means histBuckets
	buckets [maxHistBuckets + 1]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

func (h *Histogram) bnds() []uint64 {
	if h.bounds == nil {
		return histBuckets
	}
	return h.bounds
}

// Observe records v when telemetry is enabled.
func (h *Histogram) Observe(v uint64) {
	if !enabled.Load() {
		return
	}
	b := h.bnds()
	i := 0
	for i < len(b) && v > b[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// promQuantiles are the quantile series derived from every histogram in
// snapshots and Prometheus exposition.
var promQuantiles = [...]struct {
	suffix string
	q      float64
}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observations by
// linear interpolation inside the histogram's fixed buckets — the same
// estimator Prometheus applies to _bucket series. It returns 0 with no
// observations, and ranks landing in the overflow bucket report the
// last finite bound (the estimate is a floor there, not a value).
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	b := h.bnds()
	rank := q * float64(count)
	cum := uint64(0)
	for i := 0; i <= len(b); i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(b) {
				break // overflow bucket: no finite upper bound
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(b[i-1])
			}
			hi := float64(b[i])
			return lo + (hi-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return float64(b[len(b)-1])
}

// Vec is a family of counters distinguished by one label, e.g. steal
// counts by arena distance. Children are created on first use and
// cached; hot paths should cache the *Counter returned by With.
type Vec struct {
	name, help, label string

	mu       sync.RWMutex
	children map[string]*Counter
	order    []string
}

// With returns the child counter for the given label value.
func (v *Vec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c != nil {
		return c
	}
	c = new(Counter)
	v.children[value] = c
	v.order = append(v.order, value)
	return c
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindVec
)

func (k metricKind) promType() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

type metric struct {
	kind metricKind
	name string
	help string

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
	vec     *Vec
}

// Registry holds named metrics. Registration is idempotent: asking for
// an existing name of the same kind returns the existing metric, so
// multiple pools share one set of process-wide counters. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*metric
	order  []string
}

// Default is the process-wide registry every instrumented subsystem
// registers into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns the existing entry for name, checking the kind, or
// registers the one built by mk.
func (r *Registry) lookup(name string, kind metricKind, mk func() *metric) *metric {
	r.mu.RLock()
	m := r.byName[name]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		if m = r.byName[name]; m == nil {
			m = mk()
			r.byName[name] = m
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if m.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind", name))
	}
	return m
}

// Counter returns the registered counter with the given name, creating
// it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, kindCounter, func() *metric {
		return &metric{kind: kindCounter, name: name, help: help, counter: new(Counter)}
	}).counter
}

// Gauge returns the registered gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, kindGauge, func() *metric {
		return &metric{kind: kindGauge, name: name, help: help, gauge: new(Gauge)}
	}).gauge
}

// GaugeFunc registers a gauge computed by fn at snapshot time. Unlike
// the other constructors it replaces any previous function under the
// same name: pool-state gauges rebind to the most recently opened pool.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.lookup(name, kindGaugeFunc, func() *metric {
		return &metric{kind: kindGaugeFunc, name: name, help: help}
	})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the registered histogram with the given name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.lookup(name, kindHistogram, func() *metric {
		return &metric{kind: kindHistogram, name: name, help: help, hist: new(Histogram)}
	}).hist
}

// HistogramBuckets is Histogram with explicit finite upper bounds
// (ascending, at most maxHistBuckets of them). The bounds are fixed at
// first registration; a later call under the same name returns the
// existing histogram unchanged.
func (r *Registry) HistogramBuckets(name, help string, bounds []uint64) *Histogram {
	if len(bounds) == 0 || len(bounds) > maxHistBuckets {
		panic(fmt.Sprintf("telemetry: histogram %q wants %d buckets, max %d", name, len(bounds), maxHistBuckets))
	}
	return r.lookup(name, kindHistogram, func() *metric {
		return &metric{kind: kindHistogram, name: name, help: help, hist: &Histogram{bounds: bounds}}
	}).hist
}

// CounterVec returns the registered counter family with the given name
// and label key.
func (r *Registry) CounterVec(name, help, label string) *Vec {
	return r.lookup(name, kindVec, func() *metric {
		return &metric{kind: kindVec, name: name, help: help,
			vec: &Vec{name: name, help: help, label: label, children: map[string]*Counter{}}}
	}).vec
}

// snapshotMetrics returns the registered metrics in registration
// order, plus the gauge functions captured under the lock.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// Snapshot is a flat view of every metric series: plain metrics under
// their name, vec children as name{label="value"}, histograms exploded
// into _bucket/_sum/_count series.
type Snapshot map[string]int64

// Delta returns s - prev per series, dropping zero deltas. Series
// absent from prev count from zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot)
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Get returns the series value, or zero when absent.
func (s Snapshot) Get(name string) int64 { return s[name] }

// Snapshot captures the current value of every registered series. It
// is safe to call while every metric is concurrently mutated: counter
// reads are atomic and the registry lock covers only the name table.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot)
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			out[m.name] = int64(m.counter.Load())
		case kindGauge:
			out[m.name] = m.gauge.Load()
		case kindGaugeFunc:
			r.mu.RLock()
			fn := m.fn
			r.mu.RUnlock()
			if fn != nil {
				out[m.name] = fn()
			}
		case kindHistogram:
			for i := 0; i <= len(m.hist.bnds()); i++ {
				out[fmt.Sprintf("%s_bucket{le=%q}", m.name, m.hist.bound(i))] =
					int64(m.hist.buckets[i].Load())
			}
			out[m.name+"_sum"] = int64(m.hist.Sum())
			out[m.name+"_count"] = int64(m.hist.Count())
			for _, pq := range promQuantiles {
				out[m.name+pq.suffix] = int64(m.hist.Quantile(pq.q) + 0.5)
			}
		case kindVec:
			m.vec.mu.RLock()
			for _, lv := range m.vec.order {
				out[fmt.Sprintf("%s{%s=%q}", m.name, m.vec.label, lv)] =
					int64(m.vec.children[lv].Load())
			}
			m.vec.mu.RUnlock()
		}
	}
	return out
}

// bound renders the i-th bucket's upper bound label.
func (h *Histogram) bound(i int) string {
	b := h.bnds()
	if i >= len(b) {
		return "+Inf"
	}
	return fmt.Sprintf("%d", b[i])
}

// WriteProm writes every metric in the Prometheus text exposition
// format, in registration order with sorted label values.
func (r *Registry) WriteProm(w io.Writer) {
	for _, m := range r.snapshotMetrics() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType())
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Load())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Load())
		case kindGaugeFunc:
			r.mu.RLock()
			fn := m.fn
			r.mu.RUnlock()
			v := int64(0)
			if fn != nil {
				v = fn()
			}
			fmt.Fprintf(w, "%s %d\n", m.name, v)
		case kindHistogram:
			cum := uint64(0)
			for i := 0; i <= len(m.hist.bnds()); i++ {
				cum += m.hist.buckets[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, m.hist.bound(i), cum)
			}
			fmt.Fprintf(w, "%s_sum %d\n", m.name, m.hist.Sum())
			fmt.Fprintf(w, "%s_count %d\n", m.name, m.hist.Count())
			for _, pq := range promQuantiles {
				qn := m.name + pq.suffix
				fmt.Fprintf(w, "# HELP %s estimated %g-quantile of %s\n", qn, pq.q, m.name)
				fmt.Fprintf(w, "# TYPE %s gauge\n", qn)
				fmt.Fprintf(w, "%s %.6g\n", qn, m.hist.Quantile(pq.q))
			}
		case kindVec:
			m.vec.mu.RLock()
			values := append([]string(nil), m.vec.order...)
			m.vec.mu.RUnlock()
			sort.Strings(values)
			for _, lv := range values {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.vec.label, lv, m.vec.With(lv).Load())
			}
		}
	}
}

// String renders the registry as a JSON object mapping series names to
// values — the expvar.Var contract, so the registry can be published
// with expvar.Publish and served from /debug/vars.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", k, snap[k])
	}
	b.WriteByte('}')
	return b.String()
}
