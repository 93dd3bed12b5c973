package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The reference lap.
//
// The driver contract wants every end_to_end metric from every
// single-workload run, but some belong to a few workloads (only
// paper_indices runs SafePM). In single-workload mode the cells a
// workload does not measure itself are filled from a reference
// lap: the metric's home workload (metricDef.Homes[0]) run at a tenth
// of its size with a fixed amount of work, in a fresh child process,
// after the measured phase. A lap cell guards the same code as the home
// cell, at lower resolution; the home cell is the one to cite. The
// full run (no -workload) prints only what each workload measures
// itself.

// lapScale is the fixed work of each home workload's lap.
var lapScale = map[string]scale{
	wPaperIndices: {keys: keySpace / 20, windows: 9},
	wDurableWrite: {keys: keySpace / 10, ops: 300, windows: 5},
}

// lapRunner runs the reference lap of one home workload.
type lapRunner func(home string, seed uint64) (*result, error)

// runLap runs a lap in this process.
func runLap(home string, seed uint64) (*result, error) {
	sc, ok := lapScale[home]
	if !ok {
		return nil, fmt.Errorf("no reference lap defined for %s", home)
	}
	sc.setupReps = 1
	return scenarios[home](sc, seed)
}

// runLapInChild runs a lap in a fresh copy of this program, so that
// the heap the measured phase left behind — hundreds of megabytes of
// pools — does not set the garbage collector's pace for the lap.
func runLapInChild(home string, seed uint64) (*result, error) {
	return runChild("-lap", home, "-seed", strconv.FormatUint(seed, 10))
}

// runChild runs this program again with args and decodes the result it
// prints as one JSON line (-lap and -raw do).
func runChild(args ...string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("child %v output: %w", args, err)
	}
	return &r, nil
}

// fillFromLaps completes r with every end_to_end metric of
// BENCHMARK.json it lacks.
func fillFromLaps(r *result, seed uint64, run lapRunner, logf func(string, ...any)) error {
	laps := map[string]*result{}
	for _, m := range contractEndToEnd() {
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		home := m.Homes[0]
		lap, ok := laps[home]
		if !ok {
			t0 := time.Now()
			var err error
			if lap, err = run(home, seed); err != nil {
				return fmt.Errorf("reference lap %s (for %s): %w", home, m.Name, err)
			}
			logf("reference lap %s: %d ops, %d failed, %.2fs", home, lap.Attempted, lap.Failed, time.Since(t0).Seconds())
			laps[home] = lap
			r.Attempted += lap.Attempted
			r.Failed += lap.Failed
			r.Notes = append(r.Notes, lap.Notes...)
		}
		v, ok := lap.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("reference lap %s did not produce %s", home, m.Name)
		}
		r.Metrics[m.Name] = v
	}
	return nil
}
