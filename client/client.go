// Package client is the Go client library for the sppserver KV
// service. A Client is bound to one tenant on one connection and is
// safe for concurrent use: requests are serialized onto the wire in
// order (the protocol is strictly request/response per connection).
// Open several clients for pipelined load.
//
// Shedding is a first-class outcome: when the server's admission
// control rejects a request, calls fail with ErrOverloaded — the
// operation was never executed and can be retried. Server-side
// failures (including memory-safety traps) surface as *ServerError.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrOverloaded reports that the server shed the request before
// executing it; retrying after backoff is safe.
var ErrOverloaded = wire.ErrOverloaded

// ServerError is an error reported by the server while executing an
// operation (as opposed to transport or shedding errors).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Client is one tenant's handle to a KV service.
type Client struct {
	tenant  string
	sampler *trace.Sampler

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// wbuf holds the encoded request and hdr receives the reply's frame
	// header; both are reused from call to call under mu.
	wbuf []byte
	hdr  [wire.RespHeaderLen]byte
}

// Option configures a Client at Dial time.
type Option func(*Client)

// WithTracing makes the client mint a trace context for one in n
// requests (n <= 1 traces every request). A sampled request carries
// the context in its wire frame, and the server records a per-phase
// latency breakdown for it. Only sampled requests change the frame
// encoding, so a client with sampling configured still interoperates
// with pre-tracing servers on the unsampled ones; a traced frame sent
// to such a server fails with a "bad op" *ServerError rather than
// misbehaving. Requires a server that understands the trace header.
func WithTracing(n int) Option {
	return func(c *Client) { c.sampler = trace.NewSampler(n) }
}

// Dial connects to a sppserver at addr and binds the client to tenant.
func Dial(addr, tenant string, opts ...Option) (*Client, error) {
	if tenant == "" || len(tenant) > wire.MaxTenantLen {
		return nil, fmt.Errorf("client: invalid tenant %q", tenant)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		tenant: tenant,
		conn:   conn,
		br:     bufio.NewReader(conn),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// do performs one round trip. The connection lock spans write and read
// so concurrent callers cannot interleave frames. The request is
// encoded into the client's buffer and written from it in one Write;
// the reply's payload, when it has one, is allocated at its exact size
// and is the caller's to keep.
func (c *Client) do(req wire.Request) (wire.Response, error) {
	req.Tenant = c.tenant
	if c.sampler != nil {
		if tc := c.sampler.Next(); tc.Sampled {
			req.Trace = tc
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return wire.Response{}, errors.New("client: closed")
	}
	buf, err := wire.AppendRequest(c.wbuf[:0], req)
	if err != nil {
		return wire.Response{}, err
	}
	c.wbuf = buf
	if cap(buf) > wire.RetainCap {
		c.wbuf = nil // one large Put must not stay pinned by an idle client
	}
	if _, err := c.conn.Write(buf); err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.ReadOwnedResponse(c.br, c.hdr[:])
	if err != nil {
		return wire.Response{}, err
	}
	switch resp.Status {
	case wire.StatusOverloaded:
		return resp, ErrOverloaded
	case wire.StatusError:
		return resp, &ServerError{Msg: string(resp.Payload)}
	}
	return resp, nil
}

// Get fetches key. ok is false when the key is absent.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	resp, err := c.do(wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusNotFound {
		return nil, false, nil
	}
	return resp.Payload, true, nil
}

// Put stores value under key, overwriting any prior value.
func (c *Client) Put(key, value []byte) error {
	_, err := c.do(wire.Request{Op: wire.OpPut, Key: key, Value: value})
	return err
}

// Delete removes key; removed is false when it was absent.
func (c *Client) Delete(key []byte) (removed bool, err error) {
	resp, err := c.do(wire.Request{Op: wire.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status != wire.StatusNotFound, nil
}

// Scan returns up to limit key/value pairs in [lo, hi) in ascending
// key order (nil lo scans from the start, nil hi to the end, limit 0
// means no client-side limit). The server runs the scan against a
// single consistent snapshot, so the result never interleaves with
// concurrent writes; it may still be truncated by the response frame
// budget — re-issue with lo set past the last returned key to page.
func (c *Client) Scan(lo, hi []byte, limit uint32) ([]wire.KV, error) {
	resp, err := c.do(wire.Request{Op: wire.OpScan, Key: lo, Hi: hi, Limit: limit})
	if err != nil {
		return nil, err
	}
	return wire.ParseScanResult(resp.Payload)
}

// Count returns the number of live keys in the tenant's store.
func (c *Client) Count() (uint64, error) {
	resp, err := c.do(wire.Request{Op: wire.OpCount})
	if err != nil {
		return 0, err
	}
	return wire.ParseCount(resp.Payload)
}
