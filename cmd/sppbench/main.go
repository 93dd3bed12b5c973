// Command sppbench regenerates the tables and figures of the paper's
// evaluation (§VI). Each experiment prints the same rows or series the
// paper reports, at a configurable scale.
//
// Usage:
//
//	sppbench -exp all -scale 0.01
//	sppbench -exp fig4 -scale 0.1 -pool 1073741824
//	sppbench -exp table4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

type experiment struct {
	name string
	desc string
	run  func(bench.Config) (bench.Table, error)
}

var experiments = []experiment{
	{"fig4", "persistent indices (Figure 4)", bench.Fig4},
	{"fig5", "pmemkv workloads (Figure 5)", bench.Fig5},
	{"fig6", "Phoenix suite (Figure 6)", bench.Fig6},
	{"fig7", "PM management operations (Figure 7)", bench.Fig7},
	{"table2", "recovery time (Table II)", bench.Table2},
	{"table3", "PM space overhead (Table III)", bench.Table3},
	{"table4", "RIPE attacks (Table IV)", bench.Table4},
	{"crash", "crash consistency (§VI-E)", bench.CrashConsistency},
	{"ablation", "design-choice ablation (DESIGN.md §7)", bench.Ablation},
	{"elide", "static elision tiers: range, loop, persistence (DESIGN.md §13)", bench.Elide},
	{"scaling", "memory-path concurrency scaling (DESIGN.md §10)", bench.Scaling},
	{"steal", "cross-arena steal rates under skewed size classes (DESIGN.md §11)", bench.Steal},
	{"compile", "closure compilation vs reference interpreter (DESIGN.md §14)", bench.Compile},
	{"serve", "KV service under closed-loop load (DESIGN.md §15)", bench.ServeBench},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sppbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sppbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, "+names())
	scale := fs.Float64("scale", 0.01, "fraction of the paper's operation counts (1.0 = paper scale)")
	pool := fs.Uint64("pool", 256<<20, "pool size in bytes per environment")
	threads := fs.String("threads", "1,2,4,8", "comma-separated thread axis for fig5/scaling")
	seed := fs.Int64("seed", 42, "workload seed")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/audit, /debug/flight and /debug/pprof on this address (implies -metrics)")
	knobs := engine.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsAddr != "" {
		knobs.Telemetry = true
	}
	if knobs.Telemetry {
		telemetry.Enable()
	}
	if knobs.FlightRecorder {
		telemetry.Flight.Enable()
	}
	if *metricsAddr != "" {
		addr, closeTelemetry, err := telemetry.Serve(*metricsAddr, telemetry.Default)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer closeTelemetry()
		fmt.Printf("telemetry: serving http://%s/metrics (and /debug/vars, /debug/audit, /debug/flight, /debug/pprof)\n", addr)
	}
	var ts []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -threads value %q", part)
		}
		ts = append(ts, n)
	}
	cfg := bench.Config{
		Scale: *scale, PoolSize: *pool, Threads: ts, Seed: *seed,
		Knobs: *knobs,
	}

	selected := experiments
	if *exp != "all" {
		selected = nil
		for _, e := range experiments {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (want all, %s)", *exp, names())
		}
	}
	for _, e := range selected {
		fmt.Printf("running %s ...\n", e.desc)
		start := time.Now()
		table, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(table.Format())
		fmt.Printf("(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if knobs.FlightRecorder {
		fmt.Println("== flight recorder (most recent events) ==")
		if _, err := telemetry.Flight.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func names() string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return strings.Join(out, ", ")
}
