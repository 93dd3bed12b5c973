package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/variant"
)

// TestMVCCTelemetry moves each spp_mvcc_* series, and shows that one
// scrape is enough to see a snapshot nobody releases: the pin lag and
// the pending retire nodes grow with the writes, reads through the held
// roots skip more and more head versions, and no reclaim happens.
func TestMVCCTelemetry(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(1)) // registers the gauges
	if err != nil {
		t.Fatal(err)
	}
	const (
		pending = "spp_mvcc_retire_nodes_pending"
		lag     = "spp_mvcc_pin_lag_epochs"
		walked  = "spp_mvcc_head_versions_walked"
		folded  = `spp_mvcc_reclaims_total{how="folded"}`
		alone   = `spp_mvcc_reclaims_total{how="standalone"}`
	)
	key := []byte("k")
	put := func(gen int) {
		t.Helper()
		if err := s.Put(key, []byte(fmt.Sprintf("g%d", gen))); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	put(1) // retires g0: one node pending, nothing to fold yet
	before := telemetry.Default.Snapshot()
	if before[pending] != 1 || before[lag] != 0 {
		t.Fatalf("with no pin: %d nodes pending (want 1), pin lag %d (want 0)", before[pending], before[lag])
	}
	put(2) // folds g0's node, queues g1's
	d := telemetry.Default.Snapshot().Delta(before)
	if d[folded] != 1 || d[alone] != 0 || d[pending] != 0 {
		t.Errorf("a steady-state overwrite moved folded by %d (want 1), standalone by %d (want 0), pending by %d (want 0)",
			d[folded], d[alone], d[pending])
	}

	// The leak: a snapshot is taken and forgotten while writes go on.
	leaked := s.Snapshot()
	before = telemetry.Default.Snapshot()
	const writes = 20
	for gen := 3; gen < 3+writes; gen++ {
		put(gen)
	}
	if v, ok, err := leaked.Get(key); err != nil || !ok || !bytes.Equal(v, []byte("g2")) {
		t.Fatalf("leaked snapshot reads %q, %v, %v", v, ok, err)
	}
	scrape := telemetry.Default.Snapshot()
	d = scrape.Delta(before)
	if scrape[lag] != writes {
		t.Errorf("pin lag = %d epochs after %d writes under the pin", scrape[lag], writes)
	}
	// The first write under the pin still folds the node queued before
	// it; every later one only queues.
	if d[pending] != writes-1 || d[folded] != 1 {
		t.Errorf("under the pin: pending moved by %d (want %d), folded by %d (want 1)", d[pending], writes-1, d[folded])
	}
	// The one read through the leaked root skipped every version since.
	if d[walked+"_count"] == 0 || d[walked+"_sum"] < writes {
		t.Errorf("head versions walked: count +%d, sum +%d; the leaked read alone skipped %d", d[walked+"_count"], d[walked+"_sum"], writes)
	}
	if d[walked+`_bucket{le="+Inf"}`]+d[walked+`_bucket{le="64"}`] == 0 {
		t.Errorf("no lookup in the buckets above 16 skipped versions: %v", d)
	}

	// Released: the next write folds one node and drains the backlog in
	// transactions of their own.
	if err := leaked.Release(); err != nil {
		t.Fatal(err)
	}
	before = telemetry.Default.Snapshot()
	put(100)
	scrape = telemetry.Default.Snapshot()
	d = scrape.Delta(before)
	if scrape[lag] != 0 || scrape[pending] != 0 {
		t.Errorf("after the release and one write: pin lag %d, %d nodes pending; want 0, 0", scrape[lag], scrape[pending])
	}
	if d[folded] != 1 || d[alone] != writes {
		t.Errorf("draining the backlog moved folded by %d (want 1), standalone by %d (want %d)", d[folded], d[alone], writes)
	}

	var sb bytes.Buffer
	telemetry.Default.WriteProm(&sb)
	for _, name := range []string{pending, lag, walked, "spp_mvcc_reclaims_total"} {
		if !bytes.Contains(sb.Bytes(), []byte("# HELP "+name+" ")) {
			t.Errorf("%s has no help text in the exposition", name)
		}
	}
}

// TestPointOpTelemetry moves spp_kv_gets_total, spp_kv_puts_total and
// spp_kv_deletes_total one operation at a time, and checks that nothing
// moves while telemetry is off. The subtest keeps the name it had beside
// a locked read mode, since removed.
func TestPointOpTelemetry(t *testing.T) {
	t.Run("noMVCC=false", func(t *testing.T) {
		s, _ := newStore(t, variant.SPP)
		type series struct{ getHit, getMiss, puts, delHit, delMiss uint64 }
		read := func() series {
			return series{metGetsHit.Load(), metGetsMiss.Load(), metPuts.Load(), metDeletesHit.Load(), metDeletesMiss.Load()}
		}
		moved := func(op func()) series {
			t.Helper()
			b := read()
			op()
			a := read()
			return series{a.getHit - b.getHit, a.getMiss - b.getMiss, a.puts - b.puts, a.delHit - b.delHit, a.delMiss - b.delMiss}
		}
		put := func() {
			if err := s.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		get := func(key string, want bool) func() {
			return func() {
				if _, ok, err := s.Get([]byte(key)); err != nil || ok != want {
					t.Fatalf("Get(%q) = %v, %v", key, ok, err)
				}
			}
		}
		del := func(want bool) func() {
			return func() {
				if ok, err := s.Delete([]byte("k")); err != nil || ok != want {
					t.Fatalf("Delete = %v, %v", ok, err)
				}
			}
		}
		if got := moved(func() { put(); get("k", true)(); get("absent", false)() }); got != (series{}) {
			t.Errorf("telemetry off, yet the counters moved %+v", got)
		}
		telemetry.Enable()
		t.Cleanup(telemetry.Disable)
		for _, step := range []struct {
			name string
			op   func()
			want series
		}{
			{"put", put, series{puts: 1}},
			{"get hit", get("k", true), series{getHit: 1}},
			{"get miss", get("absent", false), series{getMiss: 1}},
			{"snapshot get", func() {
				sn := s.Snapshot()
				defer sn.Release()
				if _, ok, err := sn.Get([]byte("k")); err != nil || !ok {
					t.Fatalf("Snap.Get = %v, %v", ok, err)
				}
			}, series{getHit: 1}},
			{"delete hit", del(true), series{delHit: 1}},
			{"delete miss", del(false), series{delMiss: 1}},
		} {
			if got := moved(step.op); got != step.want {
				t.Errorf("%s moved %+v, want %+v", step.name, got, step.want)
			}
		}
		var sb bytes.Buffer
		telemetry.Default.WriteProm(&sb)
		for _, line := range []string{`spp_kv_gets_total{result="hit"}`, `spp_kv_gets_total{result="miss"}`,
			"# HELP spp_kv_puts_total ", `spp_kv_deletes_total{result="hit"}`, `spp_kv_deletes_total{result="miss"}`} {
			if !bytes.Contains(sb.Bytes(), []byte(line)) {
				t.Errorf("the exposition has no %s", line)
			}
		}
	})
}
