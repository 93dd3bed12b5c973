package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

func TestDialRejectsBadTenant(t *testing.T) {
	if _, err := Dial("127.0.0.1:0", ""); err == nil {
		t.Error("empty tenant accepted")
	}
	if _, err := Dial("127.0.0.1:0", strings.Repeat("a", 300)); err == nil {
		t.Error("oversized tenant accepted")
	}
}

func TestServerErrorMatching(t *testing.T) {
	err := error(&ServerError{Msg: "boom"})
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "boom" {
		t.Errorf("errors.As failed on %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestClosedClientFails(t *testing.T) {
	c := &Client{tenant: "t"}
	if err := c.Put([]byte("k"), []byte("v")); err == nil {
		t.Error("Put on closed client succeeded")
	}
}

// TestResultsAreTheCallers: the client reuses its request buffer and
// its reply header from call to call, never what it returned — values
// and scan pairs stay intact through later calls on the same client —
// and a large Put does not leave its frame pinned.
func TestResultsAreTheCallers(t *testing.T) {
	srv, err := server.New(server.Config{Protection: "spp", PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 100+i) }
	key := make([]byte, 0, 16) // one key buffer for every call
	for i := 0; i < n; i++ {
		key = fmt.Appendf(key[:0], "key-%02d", i)
		if err := c.Put(key, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	for i := 0; i < n; i++ {
		key = fmt.Appendf(key[:0], "key-%02d", i)
		v, ok, err := c.Get(key)
		if err != nil || !ok {
			t.Fatalf("get %s: %v, %v", key, ok, err)
		}
		got = append(got, v)
	}
	kvs, err := c.Scan(nil, nil, 0)
	if err != nil || len(kvs) != n {
		t.Fatalf("scan: %d pairs, %v", len(kvs), err)
	}
	if err := c.Put([]byte("big"), make([]byte, 512<<10)); err != nil {
		t.Fatal(err)
	}
	if cap(c.wbuf) > wire.RetainCap {
		t.Errorf("request buffer still %d bytes after a 512 KiB Put, cap is %d", cap(c.wbuf), wire.RetainCap)
	}
	if _, ok, err := c.Get([]byte("absent")); ok || err != nil {
		t.Fatalf("get absent: %v, %v", ok, err)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], val(i)) {
			t.Errorf("value %d kept from Get changed under later calls", i)
		}
		if string(kvs[i].Key) != fmt.Sprintf("key-%02d", i) || !bytes.Equal(kvs[i].Value, val(i)) {
			t.Errorf("pair %d kept from Scan changed under later calls: %s", i, kvs[i].Key)
		}
	}
}
