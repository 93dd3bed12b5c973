package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/pmem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startServer builds, binds and (on cleanup) closes a server.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dial(t *testing.T, addr, tenant string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMultiTenantConcurrent drives several tenants from several
// concurrent clients each over a real socket and checks both the data
// and the isolation between tenant stores.
func TestMultiTenantConcurrent(t *testing.T) {
	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 32 << 20})
	const (
		tenants    = 3
		perTenant  = 4 // concurrent clients per tenant
		keysPerCli = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, tenants*perTenant)
	for ti := 0; ti < tenants; ti++ {
		for ci := 0; ci < perTenant; ci++ {
			wg.Add(1)
			go func(ti, ci int) {
				defer wg.Done()
				c, err := client.Dial(addr, fmt.Sprintf("tenant-%d", ti))
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				for k := 0; k < keysPerCli; k++ {
					key := []byte(fmt.Sprintf("c%d-k%d", ci, k))
					val := []byte(fmt.Sprintf("t%d/%d/%d", ti, ci, k))
					if err := c.Put(key, val); err != nil {
						errCh <- err
						return
					}
					got, ok, err := c.Get(key)
					if err != nil || !ok || !bytes.Equal(got, val) {
						errCh <- fmt.Errorf("get %s = %q, %v, %v", key, got, ok, err)
						return
					}
				}
			}(ti, ci)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		c := dial(t, addr, fmt.Sprintf("tenant-%d", ti))
		n, err := c.Count()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(perTenant * keysPerCli); n != want {
			t.Errorf("tenant-%d count = %d, want %d", ti, n, want)
		}
	}
	// Isolation: a key written only to tenant-0 is invisible elsewhere.
	c0, c1 := dial(t, addr, "tenant-0"), dial(t, addr, "tenant-1")
	if err := c0.Put([]byte("only-zero"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c1.Get([]byte("only-zero")); err != nil || ok {
		t.Errorf("tenant-1 sees tenant-0's key: ok=%v err=%v", ok, err)
	}
}

// TestScanEndToEnd drives OpScan over a real socket: ordering, bound
// handling, limits, and snapshot consistency against a concurrent
// writer hammering the same tenant.
func TestScanEndToEnd(t *testing.T) {
	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 32 << 20})
	c := dial(t, addr, "t")
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("full scan returned %d pairs, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		wantK := fmt.Sprintf("k-%03d", i)
		if string(kv.Key) != wantK || string(kv.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pair %d = %s=%s, want %s", i, kv.Key, kv.Value, wantK)
		}
	}
	kvs, err = c.Scan([]byte("k-010"), []byte("k-020"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 || string(kvs[0].Key) != "k-010" || string(kvs[9].Key) != "k-019" {
		t.Fatalf("bounded scan = %d pairs [%s..%s], want 10 [k-010..k-019]",
			len(kvs), kvs[0].Key, kvs[len(kvs)-1].Key)
	}
	if kvs, err = c.Scan(nil, nil, 7); err != nil || len(kvs) != 7 {
		t.Fatalf("limited scan = %d pairs, %v, want 7", len(kvs), err)
	}
	// Snapshot consistency under a write storm: every value a scan
	// returns must pair with its key's generation (gen stamped into all
	// keys before the value write completes would tear only if the scan
	// mixed versions across epochs for one key).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := dial(t, addr, "t")
		for g := 1; ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < n; i++ {
				if err := w.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("g%d", g))); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 20; r++ {
		kvs, err := c.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != n {
			t.Fatalf("mid-storm scan %d returned %d pairs, want %d", r, len(kvs), n)
		}
		for i := 1; i < len(kvs); i++ {
			if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
				t.Fatalf("mid-storm scan %d unordered at %d: %s >= %s", r, i, kvs[i-1].Key, kvs[i].Key)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestScanReplySizing covers the OpScan reply buffer, which is sized
// once from the first pair: rows that outgrow the estimate still arrive
// whole, and a range larger than a frame is cut at the last pair that
// fits instead of failing.
func TestScanReplySizing(t *testing.T) {
	const budget = wire.MaxFrame - 1
	for _, tc := range []struct {
		pair  int
		limit uint32
		want  int
	}{
		{pair: 100, limit: 32, want: 3200},
		{pair: 100, limit: 0, want: 6400},                     // unlimited: a modest page
		{pair: 100, limit: 1 << 31, want: budget / 100 * 100}, // never past the frame
		{pair: 600_000, limit: 5, want: 600_000},              // one pair fills it
		{pair: budget, limit: 0, want: budget},
	} {
		if got := scanReplyHint(tc.pair, tc.limit, budget); got != tc.want {
			t.Errorf("scanReplyHint(%d, %d) = %d, want %d", tc.pair, tc.limit, got, tc.want)
		}
	}

	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 64 << 20})
	c := dial(t, addr, "t")
	// The first row is the smallest, so every later one overruns the
	// estimate made from it.
	sizes := []int{1, 40_000, 3, 90_000, 300_000, 300_000, 300_000, 300_000}
	for i, n := range sizes {
		if err := c.Put([]byte(fmt.Sprintf("row-%d", i)), bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan(nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 4 {
		t.Fatalf("limited scan returned %d pairs, want 4", len(kvs))
	}
	kvs, err = c.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The four small rows and three 300000-byte rows fit under 1 MiB;
	// the fourth does not.
	if len(kvs) != 7 {
		t.Fatalf("frame-bounded scan returned %d pairs, want 7", len(kvs))
	}
	for i, kv := range kvs {
		if string(kv.Key) != fmt.Sprintf("row-%d", i) || !bytes.Equal(kv.Value, bytes.Repeat([]byte{byte('a' + i)}, sizes[i])) {
			t.Fatalf("pair %d = %s with %d value bytes, want row-%d with %d", i, kv.Key, len(kv.Value), i, sizes[i])
		}
	}
}

// TestMalformedFrameDropsConnection sends broken frames and checks the
// server rejects the stream, closes the connection, and keeps serving
// well-formed clients.
func TestMalformedFrameDropsConnection(t *testing.T) {
	_, addr := startServer(t, Config{Protection: "none"})
	for name, frame := range map[string][]byte{
		"garbage":         bytes.Repeat([]byte{0xee}, 16),
		"zero frame":      {0, 0, 0, 0},
		"oversize prefix": {0xff, 0xff, 0xff, 0xff},
		"bad op":          {0, 0, 0, 7, 99, 1, 't', 0, 0, 0, 1, 'k'},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// The server may answer with one StatusError frame; either way
		// the connection must reach EOF, not hang.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := wire.ReadResponse(conn)
		if err == nil && resp.Status != wire.StatusError {
			t.Errorf("%s: response status %d, want StatusError or close", name, resp.Status)
		}
		if err == nil {
			if _, err = wire.ReadResponse(conn); err == nil {
				t.Errorf("%s: connection still open after malformed frame", name)
			}
		}
		conn.Close()
	}
	// The server is still healthy.
	c := dial(t, addr, "ok")
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("after malformed clients: %v", err)
	}
}

// TestInvalidTenantRejected checks tenant names that could escape the
// data directory are refused per-request, not fatally.
func TestInvalidTenantRejected(t *testing.T) {
	_, addr := startServer(t, Config{Protection: "none"})
	for _, tenant := range []string{"../evil", "a/b", "sp ace", "nul\x00"} {
		c := dial(t, addr, tenant)
		err := c.Put([]byte("k"), []byte("v"))
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Errorf("tenant %q: err = %v, want ServerError", tenant, err)
		}
	}
}

// TestBackpressureShed saturates a tiny admission window and checks
// the server sheds with StatusOverloaded quickly instead of queueing
// without bound: shed requests come back in far less time than the
// backlog would take to execute.
func TestBackpressureShed(t *testing.T) {
	const opDelay = 25 * time.Millisecond
	_, addr := startServer(t, Config{
		Protection:  "none",
		MaxInFlight: 2,
		MaxQueue:    2,
		OpCost:      opDelay,
	})

	const clients = 24
	var (
		wg            sync.WaitGroup
		shed, served  atomic64
		slowestShed   atomic64
		unexpectedErr atomic64
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, "t")
			if err != nil {
				unexpectedErr.add(1)
				return
			}
			defer c.Close()
			t0 := time.Now()
			err = c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
			elapsed := time.Since(t0)
			switch {
			case errors.Is(err, client.ErrOverloaded):
				shed.add(1)
				slowestShed.max(uint64(elapsed))
			case err == nil:
				served.add(1)
			default:
				unexpectedErr.add(1)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	if unexpectedErr.load() != 0 {
		t.Fatalf("%d unexpected errors", unexpectedErr.load())
	}
	if shed.load() == 0 {
		t.Fatalf("no requests shed (served %d of %d through window 2+2)", served.load(), clients)
	}
	if served.load() == 0 {
		t.Fatal("every request shed; admission window never admitted")
	}
	// Bounded latency, not collapse: a shed answer must not wait out
	// the whole backlog. The backlog would take clients/2*opDelay to
	// drain serially through the window.
	backlog := time.Duration(clients/2) * opDelay
	if got := time.Duration(slowestShed.load()); got > backlog/2 {
		t.Errorf("slowest shed reply took %v; want well under backlog %v", got, backlog)
	}
	if wall > 2*backlog {
		t.Errorf("wall time %v suggests unbounded queueing (backlog %v)", wall, backlog)
	}
	t.Logf("served=%d shed=%d wall=%v slowest shed=%v",
		served.load(), shed.load(), wall, time.Duration(slowestShed.load()))
}

// TestTraceSmoke runs a fully sampled server under enough concurrency
// to make every phase real, then checks the three places traces land:
// the always-on phase totals (queue, exec and fence all accumulate and
// account for the end-to-end time), the slow-exemplar ring, and the
// /debug/slow HTTP surface.
func TestTraceSmoke(t *testing.T) {
	trace.ResetSlow()
	t.Cleanup(func() { trace.SetSlowThreshold(0); trace.ResetSlow() })
	before := trace.Snapshot()
	_, addr := startServer(t, Config{
		Protection:  "spp",
		PoolSize:    32 << 20,
		MaxInFlight: 2,
		MaxQueue:    32,
		OpCost:      2 * time.Millisecond, // every request clears the slow threshold
		Knobs:       engine.Knobs{TraceSample: 1, SlowTraceUS: 1000},
	})

	const clients, opsPerClient = 8, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr, "t", client.WithTracing(1))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsPerClient; i++ {
				if err := c.Put([]byte(fmt.Sprintf("c%d-k%d", ci, i)), []byte("v")); err != nil {
					errCh <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	d := trace.Snapshot().Delta(before)
	if want := uint64(clients * opsPerClient); d.Count != want {
		t.Fatalf("traced %d requests, want %d (sampling 1-in-1 on both ends)", d.Count, want)
	}
	for _, p := range []trace.Phase{trace.PhaseQueue, trace.PhaseExec, trace.PhaseFence} {
		if d.Phase[p] == 0 {
			t.Errorf("phase %v accumulated nothing", p)
		}
	}
	// Queue and exec partition the traced interval: together they must
	// account for nearly all of the end-to-end time.
	if covered := d.Phase[trace.PhaseQueue] + d.Phase[trace.PhaseExec]; covered < d.Total*9/10 {
		t.Errorf("queue+exec = %v of %v total (< 90%%)",
			time.Duration(covered), time.Duration(d.Total))
	}

	exs := trace.SlowExemplars()
	if len(exs) == 0 {
		t.Fatal("no slow exemplars despite 2ms ops over a 1ms threshold")
	}
	if e := exs[0]; e.Tenant != "t" || e.Total < time.Millisecond {
		t.Errorf("exemplar = %+v", e)
	}

	// The exemplars are served on the shared debug surface.
	hsrv := httptest.NewServer(telemetry.Handler(telemetry.NewRegistry()))
	defer hsrv.Close()
	resp, err := http.Get(hsrv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "tenant=t") {
		t.Errorf("/debug/slow missing exemplars:\n%s", body)
	}
}

// TestCrashRestartRecovery kills a server mid-life (no graceful close),
// reverts its tenant device to the durable image, restarts over the
// same device, and checks every acknowledged write survived.
func TestCrashRestartRecovery(t *testing.T) {
	for _, protection := range []string{"none", "spp"} {
		t.Run(protection, func(t *testing.T) {
			dev := pmem.NewPool("crash-tenant", 32<<20)
			fresh := true
			cfg := Config{
				Protection: protection,
				PoolSize:   32 << 20,
				OpenDevice: func(string) (*pmem.Pool, bool, error) { return dev, fresh, nil },
			}
			srv1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv1.Serve(ln) //nolint:errcheck // killed below
			c, err := client.Dial(ln.Addr().String(), "t")
			if err != nil {
				t.Fatal(err)
			}

			// Trigger the lazy tenant open, then arm crash tracking on
			// a quiescent device.
			if err := c.Put([]byte("pre"), []byte("x")); err != nil {
				t.Fatal(err)
			}
			dev.EnableTracking(nil)

			const acked = 100
			for i := 0; i < acked; i++ {
				key := []byte(fmt.Sprintf("k%04d", i))
				if err := c.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("acked put %d: %v", i, err)
				}
			}

			// Hard kill: drop the listener and the connection, wait for
			// the handlers, never close the pool.
			c.Close()
			ln.Close()
			srv1.wg.Wait()
			if err := dev.Crash(); err != nil {
				t.Fatal(err)
			}
			dev.DisableTracking()

			// Restart over the same device: adoption must recover.
			fresh = false
			srv2, addr := startServer(t, cfg)
			_ = srv2
			c2 := dial(t, addr, "t")
			for i := 0; i < acked; i++ {
				key := []byte(fmt.Sprintf("k%04d", i))
				got, ok, err := c2.Get(key)
				if err != nil {
					t.Fatalf("get %s after crash: %v", key, err)
				}
				if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("v%d", i))) {
					t.Fatalf("acked write lost: %s = %q, ok=%v", key, got, ok)
				}
			}
			n, err := c2.Count()
			if err != nil {
				t.Fatal(err)
			}
			if n < acked {
				t.Errorf("count after crash = %d, want >= %d", n, acked)
			}
		})
	}
}

// TestGracefulShutdownPersists round-trips tenants through DataDir:
// Close saves the pool images and a new server adopts them.
func TestGracefulShutdownPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Protection: "spp", PoolSize: 32 << 20, DataDir: dir}
	srv1, addr := startServer(t, cfg)
	c := dial(t, addr, "durable")
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr2 := startServer(t, cfg)
	c2 := dial(t, addr2, "durable")
	n, err := c2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("count after restart = %d, want 20", n)
	}
	v, ok, err := c2.Get([]byte("k7"))
	if err != nil || !ok || string(v) != "v7" {
		t.Errorf("k7 after restart = %q, %v, %v", v, ok, err)
	}
}

// TestShutdownRejectsLateRequests checks a closed server refuses new
// connections rather than hanging them.
func TestShutdownRejectsLateRequests(t *testing.T) {
	srv, addr := startServer(t, Config{Protection: "none"})
	c := dial(t, addr, "t")
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		// A connect may race the close; a subsequent request must fail.
		c2, err := client.Dial(addr, "t")
		if err == nil {
			if err := c2.Put([]byte("k2"), []byte("v2")); err == nil {
				t.Error("request succeeded after Close")
			}
			c2.Close()
		}
	}
}

// atomic64 is a tiny test helper (max is not in sync/atomic).
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
func (a *atomic64) max(n uint64) {
	a.mu.Lock()
	if n > a.v {
		a.v = n
	}
	a.mu.Unlock()
}
