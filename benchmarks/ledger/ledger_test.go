package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestOpSequenceIsSeeded(t *testing.T) {
	m := serveSpecs[wServeWrite].mix
	a := opSequence(7, 1, m, keySpace, 5000)
	b := opSequence(7, 1, m, keySpace, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	if reflect.DeepEqual(a, opSequence(8, 1, m, keySpace, 5000)) {
		t.Fatal("different seeds gave the same op sequence")
	}
	if reflect.DeepEqual(a, opSequence(7, 2, m, keySpace, 5000)) {
		t.Fatal("different streams gave the same op sequence")
	}
	var kinds [numOpKinds]int
	for _, o := range a {
		if o.key < 0 || o.key >= keySpace {
			t.Fatalf("key %d outside [0,%d)", o.key, keySpace)
		}
		kinds[o.kind]++
	}
	// 20/60/20/0 within a generous 3 points over 5000 draws.
	for k, want := range [numOpKinds]int{m.get, m.put, m.del, m.scan} {
		got := 100 * kinds[k] / len(a)
		if got < want-3 || got > want+3 {
			t.Errorf("%s share %d%%, want about %d%%", opNames[k], got, want)
		}
	}
}

func TestValuesAreSelfChecking(t *testing.T) {
	key := putKey(make([]byte, keyLen), 1234)
	if string(key) != "0000000000001234" {
		t.Fatalf("putKey = %q", key)
	}
	v := make([]byte, 256)
	fillValue(v, key, 42, 9)
	if got, ok := checkValue(v, key, 256, 9); !ok || got != 42 {
		t.Fatalf("checkValue = %d, %v", got, ok)
	}
	if _, ok := checkValue(v, putKey(make([]byte, keyLen), 1235), 256, 9); ok {
		t.Error("value accepted under the wrong key")
	}
	if _, ok := checkValue(v, key, 256, 10); ok {
		t.Error("value accepted under the wrong seed")
	}
	v[100] ^= 1
	if _, ok := checkValue(v, key, 256, 9); ok {
		t.Error("corrupted value accepted")
	}
	if _, ok := checkValue(v[:255], key, 256, 9); ok {
		t.Error("short value accepted")
	}
}

func TestQuantilePicker(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		idx    int
		beyond int
	}{
		{1, 0.5, 0, 0},
		{2, 0.5, 0, 1},
		{101, 0.5, 50, 50},
		{100, 0.99, 98, 1},
		{1000, 0.99, 989, 10},
		{1100, 0.99, 1088, 11},
		{10, 1.0, 9, 0},
	} {
		idx, beyond := quantileIndex(c.n, c.q)
		if idx != c.idx || beyond != c.beyond {
			t.Errorf("quantileIndex(%d, %v) = %d, %d; want %d, %d", c.n, c.q, idx, beyond, c.idx, c.beyond)
		}
	}
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	if p := percentile(lat, 0.99); p.V != 990 || p.N != 1000 || p.Short {
		t.Errorf("p99 of 1..1000us = %+v", p)
	}
	if p := percentile(lat[:999], 0.99); !p.Short {
		t.Errorf("p99 of 999 samples should be marked short: %+v", p)
	}
	if p := percentile(lat, 0.50); p.V != 500 || p.Min != 1 || p.Max != 1000 {
		t.Errorf("p50 of 1..1000us = %+v", p)
	}
}

func TestMedianOfWindows(t *testing.T) {
	in := []float64{5, 1, 9, 3, 7}
	if v := medianOf(in); v.V != 5 || v.N != 5 || v.Min != 1 || v.Max != 9 {
		t.Errorf("medianOf odd = %+v", v)
	}
	if in[0] != 5 {
		t.Error("medianOf reordered its input")
	}
	if v := medianOf([]float64{4, 1, 3, 2}); v.V != 2.5 {
		t.Errorf("medianOf even = %+v", v)
	}
	if v := medianOf(nil); v.N != 0 {
		t.Errorf("medianOf(nil) = %+v", v)
	}
	if w := windowCount(15 * time.Second); w != 60 {
		t.Errorf("windowCount(15s) = %d", w)
	}
	if w := windowCount(200 * time.Millisecond); w != 7 {
		t.Errorf("windowCount(200ms) = %d, want the 7-window floor", w)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	if len(workloads) > 8 || len(contractEndToEnd()) > 16 || len(contractPerLayer()) > 128 {
		t.Fatalf("catalogue sizes %d/%d/%d exceed 8/16/128", len(workloads), len(contractEndToEnd()), len(contractPerLayer()))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if scenarios[w.Name] == nil {
			t.Errorf("%s has no scenario", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && !m.Demoted)
		if _, ok := lapScale[m.Homes[0]]; !ok && !m.Demoted && len(m.Homes) < len(workloads) {
			t.Errorf("%s: first home %s has no reference lap", m.Name, m.Homes[0])
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
	}

	// The committed BENCHMARK.json is exactly what the catalogue
	// generates.
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(buildBenchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with -emit-benchmark-json")
	}

	// So is the README's catalogue section.
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- catalogue:begin -->\n", "<!-- catalogue:end -->"
	i, j := bytes.Index(readme, []byte(begin)), bytes.Index(readme, []byte(end))
	if i < 0 || j < i || string(readme[i+len(begin):j]) != catalogMarkdown() {
		t.Error("README.md catalogue differs from the catalogue; regenerate it with -emit-catalog")
	}
}

// TestSmokeAllWorkloads runs every workload for ~200 ms and checks
// that it emits every end-to-end metric it is a home of, nothing the
// catalogue does not declare, no zero, and no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		r, err := scenarios[w.Name](fullScale(200*time.Millisecond), 3)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, r.Attempted, r.Failed, r.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; m.homeOn(w.Name) && (!ok || !(v.V > 0)) {
				t.Errorf("%s: home metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for name := range r.Metrics {
			if m, ok := e2eByName(name); !ok {
				t.Errorf("%s emitted undeclared metric %s", w.Name, name)
			} else if !m.homeOn(w.Name) {
				t.Errorf("%s emitted %s but is not listed as its home", w.Name, name)
			}
		}
	}
}

// TestLapsFillEveryMetric checks the single-workload contract: after
// the reference laps a result carries every end_to_end metric of
// BENCHMARK.json, none zero, and the JSON line has exactly the driver's
// keys.
func TestLapsFillEveryMetric(t *testing.T) {
	saved := lapScale
	defer func() { lapScale = saved }()
	lapScale = map[string]scale{}
	for home, sc := range saved {
		sc.windows = min(sc.windows, 2)
		sc.ops, sc.keys, sc.iters = sc.ops/10, sc.keys/2, sc.iters/5
		lapScale[home] = sc
	}
	r := newResult(wIRExec) // a workload with no KV metric of its own
	for _, name := range []string{"setup_s", "ops_per_s", "go_alloc_bytes_per_op"} {
		r.Metrics[name] = single(1)
	}
	if err := fillFromLaps(r, 3, runLap, t.Logf); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("laps failed %d ops: %v", r.Failed, r.Notes)
	}
	line, err := contractLine(r, contractEndToEnd())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line: %v\n%s", err, line)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Errorf("contract line header: %s", line)
	}
	if len(got.Metrics) != len(contractEndToEnd()) {
		t.Errorf("contract line has %d metrics, want %d", len(got.Metrics), len(contractEndToEnd()))
	}
	for _, m := range contractEndToEnd() {
		if v := got.Metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
		}
	}
}

// unrepeatable are the counts that two traced runs with the same seed
// do not reproduce exactly at HEAD.
var unrepeatable = map[string]bool{
	// Go-runtime malloc counts include the runtime's background work.
	"go.mallocs_per_op": true, "client.mallocs_per_op": true, "wire.mallocs_per_op": true,
	// Which arena serves an allocation depends on hints kept in a
	// sync.Pool, which the GC empties at its own pace; block placement
	// decides which flushes share a cacheline and so how many are
	// issued, coalesced and fenced.
	"pmem.flushes_per_put": true, "pmem.fences_per_put": true,
	"pmem.flushes_coalesced_per_put": true, "pmem.fences_shared_per_put": true,
}

// TestTracedEmitsEveryLayerMetric runs the traced replay of all seven
// workloads at a fiftieth of its size: together they must emit every
// per-layer name and nothing else, and two runs with the same seed
// must agree exactly on every per-op count.
func TestTracedEmitsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	run := func() map[string]map[string]value {
		out := map[string]map[string]value{}
		for _, w := range workloads {
			r, err := runTraced(w.Name, 3, 50, dir)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if r.Failed != 0 {
				t.Errorf("%s: failed %d: %v", w.Name, r.Failed, r.Notes)
			}
			out[w.Name] = r.Metrics
		}
		return out
	}
	a := run()
	declared := map[string]metricDef{}
	for _, m := range perLayer {
		declared[m.Name] = m
	}
	emitted := map[string]bool{}
	for w, ms := range a {
		for name := range ms {
			if _, ok := declared[name]; !ok {
				t.Errorf("%s emitted undeclared per-layer metric %s", w, name)
			}
			emitted[name] = true
		}
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("no workload emitted %s", name)
		}
	}
	if _, err := os.Stat(dir + "/trace-serve_read.jsonl"); err != nil {
		t.Errorf("span file: %v", err)
	}

	b := run()
	for w, ms := range a {
		for name, va := range ms {
			if declared[name].Unit != "count" || unrepeatable[name] {
				continue
			}
			if vb := b[w][name]; va.V != vb.V {
				t.Errorf("%s %s: %v then %v with the same seed", w, name, va.V, vb.V)
			}
		}
	}
}
