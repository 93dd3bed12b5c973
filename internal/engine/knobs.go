// Package engine holds the single definition of the engine's tuning
// surface. Every layer that used to re-declare these fields —
// pmemobj.Config, variant.Options, bench.Config, and each binary's
// flag block — now embeds Knobs (and, where pool geometry matters,
// Geometry) instead, so a knob added here is automatically carried
// through pool creation, environment assembly, the benchmark harness,
// and the command-line of sppbench, sppc and sppserver. RegisterFlags
// is the one flag-registration site; knobFlags names the flag for each
// field and the tests assert the mapping is total, so a new field
// cannot silently miss its flag or get dropped in translation.
package engine

import "flag"

// Knobs are the volatile engine knobs — tuning and observability: they
// shape rebuilt in-memory structure and telemetry, never the
// persistent layout, so any pool may be opened under any combination.
type Knobs struct {
	// NArenas is the number of heap arenas (independent allocator
	// shards); the pool default when zero.
	NArenas int
	// Telemetry turns on the global metrics registry; process-wide
	// once set (see internal/telemetry).
	Telemetry bool
	// FlightRecorder turns on the global flight-recorder event ring.
	FlightRecorder bool
	// TraceSample traces 1 in N served requests with a per-phase
	// latency breakdown (internal/trace); 0 disables request tracing.
	// The server applies its own sampler to requests whose client sent
	// no trace context, so attribution works with old clients too.
	TraceSample int
	// SlowTraceUS captures traced requests at least this many
	// microseconds slow as whole-request exemplars on /debug/slow;
	// 0 disables exemplar capture.
	SlowTraceUS int
	// MetricsSample records 1 in N increments (weighted, rounded up to
	// a power of two) on the hottest per-access hook counters instead
	// of every one, so telemetry stays cheap on multi-core; 0 or 1
	// counts exactly.
	MetricsSample int
}

// Geometry sizes the pool's transaction logs. Unlike Knobs these are
// persisted in the pool header at creation; on reopen the header wins.
type Geometry struct {
	// NLanes is the number of redo/undo lanes (concurrent
	// transactions).
	NLanes int
	// RedoEntries is the redo-log capacity per lane.
	RedoEntries int
	// UndoBytes is the undo-log capacity per lane.
	UndoBytes uint64
}

// knobFlags maps every Knobs field to its canonical command-line flag.
// TestRegisterFlagsCoversEveryKnob walks the struct and fails on any
// field missing here, and RegisterFlags is driven off the same table,
// so the mapping cannot drift.
var knobFlags = map[string]string{
	"NArenas":        "arenas",
	"Telemetry":      "metrics",
	"FlightRecorder": "flight",
	"TraceSample":    "trace-sample",
	"SlowTraceUS":    "slow-threshold",
	"MetricsSample":  "metrics-sample",
}

// RegisterFlags registers one flag per Knobs field on fs and returns
// the Knobs the parsed flags populate. It is the only flag-registration
// site for engine knobs; sppbench, sppc and sppserver all consume it.
func RegisterFlags(fs *flag.FlagSet) *Knobs {
	k := &Knobs{}
	fs.IntVar(&k.NArenas, knobFlags["NArenas"], 0,
		"allocator arena count (0 = pool default)")
	fs.BoolVar(&k.Telemetry, knobFlags["Telemetry"], false,
		"enable the telemetry metrics registry")
	fs.BoolVar(&k.FlightRecorder, knobFlags["FlightRecorder"], false,
		"enable the flight-recorder event ring")
	fs.IntVar(&k.TraceSample, knobFlags["TraceSample"], 0,
		"trace 1 in N served requests with a per-phase latency breakdown (0 = off)")
	fs.IntVar(&k.SlowTraceUS, knobFlags["SlowTraceUS"], 0,
		"capture traced requests at least this many µs slow as /debug/slow exemplars (0 = off)")
	fs.IntVar(&k.MetricsSample, knobFlags["MetricsSample"], 0,
		"sample 1 in N hook-counter increments, weighted (0 or 1 = exact)")
	return k
}
