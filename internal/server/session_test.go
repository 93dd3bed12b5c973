package server

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

var raceEnabled bool

// rawConn is a test client speaking frames directly, so a test sees
// every reply byte.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	rd   *wire.Reader
	buf  []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, rd: wire.NewReader(conn)}
}

// do sends one request and returns the reply as the bytes of its frame
// after the length prefix: status, then payload.
func (c *rawConn) do(req wire.Request) []byte {
	c.t.Helper()
	var err error
	if c.buf, err = wire.AppendRequest(c.buf[:0], req); err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		c.t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := c.rd.ReadResponse()
	if err != nil {
		c.t.Fatalf("reply to op %d: %v", req.Op, err)
	}
	return append([]byte{resp.Status}, resp.Payload...)
}

// TestNoStaleBytesAcrossRequests alternates long and short keys and
// values, a miss, an error reply and scans on one connection — every
// request decoded from, and every reply built in, the buffer the one
// before it left behind — and checks each reply byte for byte against
// an oracle server that gets the same requests one connection apiece,
// so with fresh buffers every time.
func TestNoStaleBytesAcrossRequests(t *testing.T) {
	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 32 << 20})
	_, oracle := startServer(t, Config{Protection: "spp", PoolSize: 32 << 20})
	long := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	reqs := []wire.Request{
		{Op: wire.OpPut, Tenant: "t", Key: long('K', 200), Value: long('V', 3000)},
		{Op: wire.OpPut, Tenant: "t", Key: []byte("k"), Value: []byte("v")},
		{Op: wire.OpPut, Tenant: "t", Key: []byte("empty"), Value: nil},
		{Op: wire.OpGet, Tenant: "t", Key: long('K', 200)},
		{Op: wire.OpGet, Tenant: "t", Key: []byte("k")},
		{Op: wire.OpGet, Tenant: "t", Key: []byte("absent-absent-absent")},
		{Op: wire.OpGet, Tenant: "t", Key: []byte("empty")},
		{Op: wire.OpScan, Tenant: "t"},
		{Op: wire.OpGet, Tenant: "../not-a-tenant", Key: []byte("k")}, // an error reply
		{Op: wire.OpGet, Tenant: "t", Key: []byte("k")},
		{Op: wire.OpCount, Tenant: "t"},
		{Op: wire.OpScan, Tenant: "t", Key: []byte("a"), Hi: []byte("f"), Limit: 1},
		{Op: wire.OpGet, Tenant: "t", Key: long('K', 200)},
		{Op: wire.OpDelete, Tenant: "t", Key: []byte("absent")},
		{Op: wire.OpScan, Tenant: "t", Key: []byte("zzz")}, // an empty scan
		{Op: wire.OpGet, Tenant: "t", Key: []byte("k")},
	}
	one := dialRaw(t, addr)
	for i, req := range reqs {
		got, want := one.do(req), dialRaw(t, oracle).do(req)
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (op %d): reply on the shared connection\n  %q\nfrom the oracle\n  %q", i, req.Op, got, want)
		}
		switch i { // and the replies whose bytes are known outright
		case 3, 12:
			want = append([]byte{wire.StatusOK}, long('V', 3000)...)
		case 4, 9, 15:
			want = []byte{wire.StatusOK, 'v'}
		case 5, 13:
			want = []byte{wire.StatusNotFound}
		case 6, 14:
			want = []byte{wire.StatusOK}
		case 10:
			want = wire.AppendCount([]byte{wire.StatusOK}, 3)
		case 11:
			want = wire.AppendScanPair([]byte{wire.StatusOK}, []byte("empty"), nil)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (op %d): reply %q, want %q", i, req.Op, got, want)
		}
		if i == 8 && (got[0] != wire.StatusError || !bytes.Contains(got, []byte("invalid tenant"))) {
			t.Fatalf("request %d: reply %q, want an invalid-tenant error", i, got)
		}
	}
}

// TestSessionBuffersBounded: a connection that carried a 512 KiB Put,
// or sent a scan reply of most of a frame, holds no buffer above
// wire.RetainCap once it is serving small requests again.
func TestSessionBuffersBounded(t *testing.T) {
	srv, err := New(Config{Protection: "spp", PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, conn := net.Pipe()
	t.Cleanup(func() { cli.Close(); conn.Close() })
	ss := session{rd: wire.NewReader(conn)}

	// One request from the client side while the test goroutine serves it.
	roundTrip := func(req wire.Request) wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan wire.Response, 1)
		go func() {
			cli.Write(frame)
			resp, _ := wire.ReadResponse(cli)
			got <- resp
		}()
		if !srv.serveOne(conn, &ss) {
			t.Fatalf("connection ended on op %d", req.Op)
		}
		return <-got
	}
	big := bytes.Repeat([]byte("x"), 512<<10)
	if resp := roundTrip(wire.Request{Op: wire.OpPut, Tenant: "t", Key: []byte("big"), Value: big}); resp.Status != wire.StatusOK {
		t.Fatalf("512 KiB put: status %d %s", resp.Status, resp.Payload)
	}
	if ss.rd.Cap() < len(big) {
		t.Fatalf("read buffer is %d bytes right after a 512 KiB request", ss.rd.Cap())
	}
	if resp := roundTrip(wire.Request{Op: wire.OpGet, Tenant: "t", Key: []byte("absent")}); resp.Status != wire.StatusNotFound {
		t.Fatalf("small get: status %d", resp.Status)
	}
	if ss.rd.Cap() > wire.RetainCap {
		t.Errorf("read buffer still %d bytes after a small request, cap is %d", ss.rd.Cap(), wire.RetainCap)
	}
	// The 512 KiB value back out, alone and in a scan: the reply frame
	// must not stay either.
	for _, req := range []wire.Request{
		{Op: wire.OpGet, Tenant: "t", Key: []byte("big")},
		{Op: wire.OpScan, Tenant: "t"},
	} {
		if resp := roundTrip(req); resp.Status != wire.StatusOK || len(resp.Payload) < len(big) {
			t.Fatalf("op %d: status %d, %d payload bytes", req.Op, resp.Status, len(resp.Payload))
		}
		if cap(ss.frame) > wire.RetainCap {
			t.Errorf("reply frame still %d bytes after op %d was written, cap is %d", cap(ss.frame), req.Op, wire.RetainCap)
		}
	}
	if resp := roundTrip(wire.Request{Op: wire.OpGet, Tenant: "t", Key: []byte("absent")}); resp.Status != wire.StatusNotFound {
		t.Fatalf("small get: status %d", resp.Status)
	}
	if cap(ss.frame) == 0 || cap(ss.frame) > wire.RetainCap {
		t.Errorf("reply frame is %d bytes after a small reply", cap(ss.frame))
	}
}

// countingListener counts the Read and Write calls the server makes on
// the connections it accepts.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l}, nil
}

func (c countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneReadOneWritePerRequest: in the steady state the server side
// of a Get is one Read (header and payload together) and one Write (the
// reply, from the frame it was built in).
func TestOneReadOneWritePerRequest(t *testing.T) {
	srv, err := New(Config{Protection: "spp", PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	go srv.Serve(ln) //nolint:errcheck // surfaced through Close
	t.Cleanup(func() { srv.Close() })
	c := dial(t, inner.Addr().String(), "t")
	if err := c.Put([]byte("k"), bytes.Repeat([]byte("v"), 256)); err != nil {
		t.Fatal(err)
	}
	const gets = 100
	r0, w0 := ln.reads.Load(), ln.writes.Load()
	for i := 0; i < gets; i++ {
		if v, ok, err := c.Get([]byte("k")); err != nil || !ok || len(v) != 256 {
			t.Fatalf("get %d: %d bytes, %v, %v", i, len(v), ok, err)
		}
	}
	// The handler is parked in the Read for request gets+1 by the time
	// (or shortly after) the last reply arrives; that Read may or may
	// not be counted yet.
	if r := ln.reads.Load() - r0; r < gets-1 || r > gets+1 {
		t.Errorf("%d server-side reads for %d gets, want one each", r, gets)
	}
	if w := ln.writes.Load() - w0; w != gets {
		t.Errorf("%d server-side writes for %d gets, want one each", w, gets)
	}
}

// TestLoopbackGetAllocs: a served Get of a 256-byte value costs the
// whole process — client, server handler, engine — at most two
// allocations, one of them the value the caller keeps.
func TestLoopbackGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 32 << 20})
	c := dial(t, addr, "tenant")
	key := []byte("0000000000000042")
	if err := c.Put(key, bytes.Repeat([]byte("v"), 256)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if v, ok, err := c.Get(key); err != nil || !ok || len(v) != 256 {
			t.Fatalf("get: %d bytes, %v, %v", len(v), ok, err)
		}
	})
	if allocs > 2 {
		t.Errorf("a loopback Get allocates %.0f times process-wide, want at most 2", allocs)
	}
	t.Logf("loopback Get: %.0f allocations", allocs)
}

// TestLoopbackScanAllocs: a served 32-row scan over the ledger's
// population costs the whole process at most three allocations — the
// reply payload and the pairs slice the caller keeps, and one of slack.
// The server side allocates for neither its rows nor its shards.
func TestLoopbackScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, addr := startServer(t, Config{Protection: "spp", PoolSize: 64 << 20})
	c := dial(t, addr, "tenant")
	const keys, rows = 20000, 32
	key := func(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }
	value := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	los := make([][]byte, keys-rows)
	for i := range los {
		los[i] = key(i)
	}
	i := 0
	scan := func() {
		i = (i*31 + 7) % len(los)
		if kvs, err := c.Scan(los[i], nil, rows); err != nil || len(kvs) != rows || !bytes.Equal(kvs[0].Key, los[i]) {
			t.Fatalf("scan from %d: %d rows, %v", i, len(kvs), err)
		}
	}
	for n := 0; n < 500; n++ {
		scan() // builds the index, sizes the workspace and the buffers
	}
	allocs := testing.AllocsPerRun(500, scan)
	if allocs > 3 {
		t.Errorf("a loopback 32-row scan allocates %.0f times process-wide, want at most 3", allocs)
	}
	t.Logf("loopback 32-row scan: %.0f allocations", allocs)
}

// TestCloseDrainsParkedHandler: graceful Close must not wait on a
// handler parked in its buffered read — neither one that never sent a
// byte nor one stopped part-way through a frame.
func TestCloseDrainsParkedHandler(t *testing.T) {
	srv, addr := startServer(t, Config{Protection: "none"})
	idle := dialRaw(t, addr)
	if got := idle.do(wire.Request{Op: wire.OpPut, Tenant: "t", Key: []byte("k"), Value: []byte("v")}); got[0] != wire.StatusOK {
		t.Fatalf("put: %q", got)
	}
	half := dialRaw(t, addr)
	frame, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpGet, Tenant: "t", Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.conn.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the handler take the partial frame
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a handler parked in the read")
	}
	for name, c := range map[string]*rawConn{"idle": idle, "half-sent": half} {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The half-sent frame may be answered with one error frame; then
		// both connections must be at EOF.
		for {
			if _, err := c.rd.ReadResponse(); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Errorf("%s connection still open after Close", name)
				}
				break
			}
		}
	}
}
