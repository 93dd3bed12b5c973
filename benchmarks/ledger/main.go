// Command ledger is the repo's benchmark: seven workloads over the
// whole SPP stack, end-to-end numbers with telemetry and tracing off,
// and (-traced) per-layer numbers measured from outside each layer.
// See benchmarks/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	duration  time.Duration
	traced    bool
	out       string
	selfcheck bool
	raw       bool
}

func main() {
	var o options
	var seconds, trace int
	var compare, emitBenchmark, emitCatalog bool
	var lap string
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's one-line JSON result (default: all seven)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.DurationVar(&o.duration, "duration", 15*time.Second, "length of each workload's measured phase")
	flag.IntVar(&seconds, "seconds", 0, "measured phase in whole seconds (overrides -duration)")
	flag.BoolVar(&o.traced, "traced", false, "per-layer run: telemetry on, TraceSample=1, fixed op counts, spans written to benchmarks/results/")
	flag.IntVar(&trace, "trace", 0, "1 is -traced, 0 is not")
	flag.StringVar(&o.out, "out", "", "write the run as one JSON document to this file")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and fail if any metric differs by more than its bound")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: a.json b.json")
	flag.BoolVar(&emitBenchmark, "emit-benchmark-json", false, "print BENCHMARK.json generated from the catalogue")
	flag.BoolVar(&o.raw, "raw", false, "internal: with -workload, print the workload's own result as JSON and nothing else")
	flag.StringVar(&lap, "lap", "", "internal: run this workload's reference lap and print the result as JSON")
	flag.BoolVar(&emitCatalog, "emit-catalog", false, "print the README metric catalogue generated from the catalogue")
	flag.Parse()
	if seconds > 0 {
		o.duration = time.Duration(seconds) * time.Second
	}
	o.traced = o.traced || trace == 1

	var err error
	switch {
	case lap != "":
		var r *result
		if r, err = runLap(lap, o.seed); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(r)
		}
	case emitBenchmark:
		err = writeBenchmarkJSON(os.Stdout)
	case emitCatalog:
		fmt.Print(catalogMarkdown())
	case compare:
		err = runCompare(flag.Args())
	case o.selfcheck:
		err = runSelfcheck(o)
	case o.workload != "":
		err = runContract(o)
	default:
		_, err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[ledger] "+format+"\n", args...)
}

// runWorkload measures one workload, untraced or traced.
func runWorkload(name string, o options) (*result, error) {
	if _, ok := workloadByName(name); !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	t0 := time.Now()
	var r *result
	var err error
	if o.traced {
		r, err = runTraced(name, o.seed, 1, resultsDir())
	} else {
		r, err = scenarios[name](fullScale(o.duration), o.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	logf("%s: %d ops, %d failed, %.1fs", name, r.Attempted, r.Failed, time.Since(t0).Seconds())
	runtime.GC()
	return r, nil
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runSuite runs every workload and prints what each measures itself.
func runSuite(o options) (*ledger, error) {
	l := newLedger(o.seed, o.duration.Seconds(), o.traced)
	var failed int64
	for _, w := range workloads {
		r, err := runWorkload(w.Name, o)
		if err != nil {
			return nil, err
		}
		printResult(os.Stdout, r, defsFor(o.traced))
		l.add(r)
		failed += r.Failed
	}
	if o.out != "" {
		if err := l.write(o.out); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return l, fmt.Errorf("%d operations failed", failed)
	}
	return l, nil
}

// demotedSeconds is the measured phase of the untraced child run that
// supplies the demoted end-to-end metrics to a --trace 1 result.
const demotedSeconds = 5

// runContract is the driver's entry point: one workload, every metric
// BENCHMARK.json declares for the selected kind, the JSON result as
// the last line of stdout.
func runContract(o options) error {
	r, err := runWorkload(o.workload, o)
	if err != nil {
		return err
	}
	if o.raw {
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	defs := contractEndToEnd()
	if o.traced {
		// The demoted end-to-end metrics ride in per_layer, but are
		// still measured with telemetry and tracing off: in a child.
		defs = contractPerLayer()
		e2e, err := runChild("-workload", o.workload, "-raw", "-seed", fmt.Sprint(o.seed),
			"-duration", fmt.Sprint(demotedSeconds*time.Second))
		if err != nil {
			return fmt.Errorf("untraced child run: %w", err)
		}
		for _, m := range endToEnd {
			if v, ok := e2e.Metrics[m.Name]; ok && m.Demoted {
				r.Metrics[m.Name] = v
			}
		}
		r.Attempted += e2e.Attempted
		r.Failed += e2e.Failed
		r.Notes = append(r.Notes, e2e.Notes...)
	} else if err := fillFromLaps(r, o.seed, runLapInChild, logf); err != nil {
		return err
	}
	printResult(os.Stdout, r, defs)
	if o.out != "" {
		l := newLedger(o.seed, o.duration.Seconds(), o.traced)
		l.add(r)
		if err := l.write(o.out); err != nil {
			return err
		}
	}
	line, err := contractLine(r, defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if r.Failed > 0 {
		return fmt.Errorf("%d operations failed", r.Failed)
	}
	return nil
}

func runSelfcheck(o options) error {
	o.traced = false
	out := o.out
	o.out = ""
	a, err := runSuite(o)
	if err != nil {
		return err
	}
	b, err := runSuite(o)
	if err != nil {
		return err
	}
	if out != "" {
		if err := b.write(out); err != nil {
			return err
		}
	}
	fmt.Println("\n== selfcheck: two runs of the same code ==")
	if !compareLedgers(os.Stdout, a, b, true) {
		return fmt.Errorf("selfcheck: a metric differs by more than its bound")
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: a.json b.json")
	}
	a, err := readLedger(args[0])
	if err != nil {
		return err
	}
	b, err := readLedger(args[1])
	if err != nil {
		return err
	}
	if err := sameHost(a, b); err != nil {
		return err
	}
	if !compareLedgers(os.Stdout, a, b, false) {
		return fmt.Errorf("compare: %s is worse than %s by more than a bound", args[1], args[0])
	}
	return nil
}

// benchmarkJSON is the root BENCHMARK.json, generated from the
// catalogue so the two cannot drift.
type benchmarkJSON struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []benchWorkload    `json:"workloads"`
	EndToEnd   []benchMetric      `json:"end_to_end"`
	PerLayer   []benchLayerMetric `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// contractRunSeconds is the measured phase the driver asks for.
const contractRunSeconds = 10

func buildBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: contractRunSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, m := range contractEndToEnd() {
		b.EndToEnd = append(b.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range contractPerLayer() {
		b.PerLayer = append(b.PerLayer, benchLayerMetric{m.Name, m.Unit, m.Better})
	}
	return b
}

func writeBenchmarkJSON(w *os.File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildBenchmarkJSON())
}
