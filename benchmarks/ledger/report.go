package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// ledger is the -out document: one run of the suite on one host.
type ledger struct {
	Issue      int     `json:"issue"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	DurationS  float64 `json:"duration_s"`
	Traced     bool    `json:"traced"`
	// Workloads maps workload -> metric -> reported value. End-to-end
	// metrics come from untraced runs, per-layer ones from -traced.
	Workloads map[string]*ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Notes     []string                `json:"notes,omitempty"`
	Metrics   map[string]ledgerMetric `json:"metrics"`
}

type ledgerMetric struct {
	Unit string `json:"unit"`
	value
}

func newLedger(seed uint64, durationS float64, traced bool) *ledger {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &ledger{
		Issue: 11, Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, DurationS: durationS, Traced: traced,
		Workloads: map[string]*ledgerWorkload{},
	}
}

// metricUnits maps every metric name to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			units[m.Name] = m.Unit
		}
	}
	return units
}()

func (l *ledger) add(r *result) {
	w := &ledgerWorkload{Attempted: r.Attempted, Failed: r.Failed, Notes: r.Notes, Metrics: map[string]ledgerMetric{}}
	for name, v := range r.Metrics {
		w.Metrics[name] = ledgerMetric{Unit: metricUnits[name], value: v}
	}
	l.Workloads[r.Workload] = w
}

func (l *ledger) write(path string) error {
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(buf, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// printResult prints one workload's metrics in catalogue order.
func printResult(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d ==\n", r.Workload, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		short := ""
		if v.Short {
			short = "  (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%-8d min %.4f max %.4f%s\n", m.Name, v.V, m.Unit, v.N, v.Min, v.Max, short)
	}
}

// contractLine is the last line of a single-workload run: exactly the
// keys the driver reads.
func contractLine(r *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range defs {
		v := r.Metrics[m.Name].V // a per-layer metric the workload does not exercise reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = mv{v, m.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(buf), err
}

// compareLedgers prints, per workload x end-to-end metric, both
// values, their distance as a share of a, and the bound, and reports
// whether every pair is within its bound. Two runs of the same code
// (symmetric) must agree in both directions; otherwise a is the
// baseline and only b being worse counts.
func compareLedgers(w io.Writer, a, b *ledger, symmetric bool) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b vs a", "bound")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, oka := wa.Metrics[m.Name]
			vb, okb := wb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			worse := relWorse(va.V, vb.V, m.Better)
			if symmetric {
				worse = math.Abs(worse)
			}
			flag := ""
			if worse > m.Bound {
				flag, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", name, m.Name, va.V, vb.V, 100*worse, 100*m.Bound, flag)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed ops: a %d, b %d  EXCEEDS\n", name, wa.Failed, wb.Failed)
			ok = false
		}
	}
	return ok
}

// sameHost refuses to compare runs from different host shapes.
func sameHost(a, b *ledger) error {
	if a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion {
		return fmt.Errorf("host shapes differ: %d CPUs / GOMAXPROCS %d / %s vs %d / %d / %s",
			a.NumCPU, a.GOMAXPROCS, a.GoVersion, b.NumCPU, b.GOMAXPROCS, b.GoVersion)
	}
	return nil
}
