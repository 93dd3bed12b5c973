package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/trace"
)

var raceEnabled bool

// goldenFrames pins one request and its replies per op, byte for byte:
// the buffer reuse on either side of the socket must not change what
// goes on the wire.
var goldenFrames = []struct {
	name string
	req  Request
	wire []byte
}{
	{"get", Request{Op: OpGet, Tenant: "acme", Key: []byte("k1")},
		[]byte{0, 0, 0, 12, OpGet, 4, 'a', 'c', 'm', 'e', 0, 0, 0, 2, 'k', '1'}},
	{"put", Request{Op: OpPut, Tenant: "acme", Key: []byte("k1"), Value: []byte("v1")},
		[]byte{0, 0, 0, 14, OpPut, 4, 'a', 'c', 'm', 'e', 0, 0, 0, 2, 'k', '1', 'v', '1'}},
	{"delete", Request{Op: OpDelete, Tenant: "t", Key: []byte("k")},
		[]byte{0, 0, 0, 8, OpDelete, 1, 't', 0, 0, 0, 1, 'k'}},
	{"count", Request{Op: OpCount, Tenant: "t"},
		[]byte{0, 0, 0, 7, OpCount, 1, 't', 0, 0, 0, 0}},
	{"scan", Request{Op: OpScan, Tenant: "t", Key: []byte("a"), Hi: []byte("m"), Limit: 10},
		[]byte{0, 0, 0, 17, OpScan, 1, 't', 0, 0, 0, 1, 'a', 0, 0, 0, 1, 'm', 0, 0, 0, 10}},
	{"traced get", Request{Op: OpGet, Tenant: "t", Key: []byte("k"), Trace: trace.Ctx{ID: 0x0102, Sampled: true}},
		[]byte{0, 0, 0, 17, OpGet | OpTraceFlag, 0, 0, 0, 0, 0, 0, 1, 2, 1, 1, 't', 0, 0, 0, 1, 'k'}},
}

// TestGoldenRequestFrames: AppendRequest produces exactly the pinned
// bytes — into a fresh slice and behind a reused buffer's old contents
// alike — and a Reader decodes them back to the request.
func TestGoldenRequestFrames(t *testing.T) {
	reused := make([]byte, 0, 64)
	var stream []byte
	for _, g := range goldenFrames {
		fresh, err := AppendRequest(nil, g.req)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(fresh, g.wire) {
			t.Errorf("%s: frame = %x, want %x", g.name, fresh, g.wire)
		}
		if reused, err = AppendRequest(reused[:0], g.req); err != nil || !bytes.Equal(reused, g.wire) {
			t.Errorf("%s: frame in a reused buffer = %x, %v, want %x", g.name, reused, err, g.wire)
		}
		stream = append(stream, g.wire...)
	}
	rd := NewReader(bytes.NewReader(stream))
	for _, g := range goldenFrames {
		got, err := rd.ReadRequest()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !sameRequest(got, g.req) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, got, g.req)
		}
	}
	if _, err := rd.ReadRequest(); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestGoldenResponseFrames pins the reply frames of every op as the
// server builds them: in place behind the reserved header.
func TestGoldenResponseFrames(t *testing.T) {
	reply := func(payload ...byte) []byte {
		return append(make([]byte, RespHeaderLen), payload...)
	}
	var stream bytes.Buffer
	golden := []struct {
		name   string
		status byte
		frame  []byte
		wire   []byte
	}{
		{"get", StatusOK, reply('v', '1'), []byte{0, 0, 0, 3, StatusOK, 'v', '1'}},
		{"put", StatusOK, reply(), []byte{0, 0, 0, 1, StatusOK}},
		{"delete absent", StatusNotFound, reply(), []byte{0, 0, 0, 1, StatusNotFound}},
		{"count", StatusOK, AppendCount(reply(), 258), []byte{0, 0, 0, 9, StatusOK, 0, 0, 0, 0, 0, 0, 1, 2}},
		{"scan", StatusOK, AppendScanPair(reply(), []byte("k"), []byte("v")),
			[]byte{0, 0, 0, 11, StatusOK, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'v'}},
		{"error", StatusError, append(reply(), "boom"...), []byte{0, 0, 0, 5, StatusError, 'b', 'o', 'o', 'm'}},
		{"shed", StatusOverloaded, reply(), []byte{0, 0, 0, 1, StatusOverloaded}},
	}
	for _, g := range golden {
		var out bytes.Buffer
		if err := WriteResponse(&out, FramedResponse(g.status, g.frame)); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(out.Bytes(), g.wire) {
			t.Errorf("%s: frame = %x, want %x", g.name, out.Bytes(), g.wire)
		}
		stream.Write(g.wire)
	}
	// Both decoders agree on every frame: the Reader's aliasing one and
	// the owning one the client uses.
	owned := bytes.NewReader(stream.Bytes())
	rd := NewReader(bytes.NewReader(stream.Bytes()))
	var hdr [RespHeaderLen]byte
	for _, g := range golden {
		a, err := rd.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := ReadOwnedResponse(owned, hdr[:])
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		want := g.wire[RespHeaderLen:]
		if a.Status != g.status || b.Status != g.status || !bytes.Equal(a.Payload, want) || !bytes.Equal(b.Payload, want) {
			t.Errorf("%s: decoded %d %x and %d %x, want %d %x", g.name, a.Status, a.Payload, b.Status, b.Payload, g.status, want)
		}
		if len(want) == 0 && b.Payload != nil {
			t.Errorf("%s: a status-only reply allocated a payload", g.name)
		}
	}
}

func sameRequest(a, b Request) bool {
	return a.Op == b.Op && a.Tenant == b.Tenant && bytes.Equal(a.Key, b.Key) &&
		bytes.Equal(a.Value, b.Value) && bytes.Equal(a.Hi, b.Hi) && a.Limit == b.Limit && a.Trace == b.Trace
}

// oneByteReader hands out its stream one byte per Read: the worst
// fragmentation a socket can produce.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

// TestReaderFragmentsAndPipelines: frames arrive whole, split across
// reads, or several to a read; the Reader decodes the same sequence, and
// fields of one request stay intact until the next read.
func TestReaderFragmentsAndPipelines(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*readerInitial/16) // outgrows the first buffer
	reqs := []Request{
		{Op: OpPut, Tenant: "acme", Key: []byte("long-key-long-key"), Value: big},
		{Op: OpGet, Tenant: "acme", Key: []byte("k")},
		{Op: OpScan, Tenant: "other", Key: []byte("a"), Hi: []byte("zz"), Limit: 3},
		{Op: OpPut, Tenant: "acme", Key: nil, Value: []byte("v")},
		{Op: OpCount, Tenant: "acme"},
	}
	var stream []byte
	for _, r := range reqs {
		var err error
		if stream, err = AppendRequest(stream, r); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range map[string]io.Reader{
		"pipelined":  bytes.NewReader(stream),
		"fragmented": oneByteReader{bytes.NewReader(stream)},
	} {
		rd := NewReader(src)
		for i, want := range reqs {
			got, err := rd.ReadRequest()
			if err != nil {
				t.Fatalf("%s: request %d: %v", name, i, err)
			}
			if !sameRequest(got, want) {
				t.Fatalf("%s: request %d decoded %+v", name, i, got)
			}
		}
		if _, err := rd.ReadRequest(); err != io.EOF {
			t.Errorf("%s: after the last frame: err = %v, want io.EOF", name, err)
		}
	}
	// A header cut short is not a clean close.
	rd := NewReader(bytes.NewReader(stream[:len(stream)-12]))
	for range reqs[:len(reqs)-1] {
		if _, err := rd.ReadRequest(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rd.ReadRequest(); err != io.ErrUnexpectedEOF {
		t.Errorf("two bytes of a header, then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReaderRetainCap: MaxFrame is enforced before the buffer grows,
// and a buffer a large frame grew is dropped at the next read, before
// the connection would go idle in it.
func TestReaderRetainCap(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if _, err := rd.ReadRequest(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize prefix: err = %v, want ErrFrameTooLarge", err)
	}
	if rd.Cap() > readerInitial {
		t.Errorf("oversize prefix grew the buffer to %d bytes", rd.Cap())
	}

	large, err := AppendRequest(nil, Request{Op: OpPut, Tenant: "t", Key: []byte("k"), Value: make([]byte, 512<<10)})
	if err != nil {
		t.Fatal(err)
	}
	small, err := AppendRequest(nil, Request{Op: OpGet, Tenant: "t", Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.Write(large)
		pw.Write(small)
		pw.Close()
	}()
	rd = NewReader(pr)
	if req, err := rd.ReadRequest(); err != nil || len(req.Value) != 512<<10 {
		t.Fatalf("large put: %d value bytes, %v", len(req.Value), err)
	}
	if rd.Cap() <= RetainCap {
		t.Fatalf("buffer is %d bytes after a 512 KiB frame", rd.Cap())
	}
	if _, err := rd.ReadRequest(); err != nil {
		t.Fatal(err)
	}
	if rd.Cap() > RetainCap {
		t.Errorf("buffer still %d bytes one request after the large one, cap is %d", rd.Cap(), RetainCap)
	}
}

// TestReaderSteadyStateAllocs: a connection that repeats its tenant
// decodes a request without allocating.
func TestReaderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frame, err := AppendRequest(nil, Request{Op: OpPut, Tenant: "acme", Key: []byte("0000000000000042"), Value: make([]byte, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	rd := NewReader(src)
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		req, err := rd.ReadRequest()
		if err != nil || req.Tenant != "acme" || len(req.Value) != 1024 {
			t.Fatalf("decoded %+v, %v", req, err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ReadRequest allocates %.0f times, want 0", allocs)
	}
}

// TestParseScanResultAllocatesOnce: the pair slice is sized by a
// counting pass, not grown.
func TestParseScanResultAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var payload []byte
	for i := 0; i < 32; i++ {
		payload = AppendScanPair(payload, []byte("0000000000000042"), make([]byte, 100))
	}
	var kvs []KV
	allocs := testing.AllocsPerRun(100, func() { kvs, _ = ParseScanResult(payload) })
	if len(kvs) != 32 || cap(kvs) != 32 || allocs != 1 {
		t.Errorf("32 pairs: len %d cap %d, %.0f allocations; want 32, 32, 1", len(kvs), cap(kvs), allocs)
	}
}

// FuzzWireStream decodes an arbitrary byte stream two ways — frame by
// frame through one reused Reader, and each frame through a fresh one —
// as requests and as responses. The two must agree on every frame, a
// decoded frame must re-encode to the bytes it came from, nothing may
// panic, and every rejection must be ErrMalformed.
func FuzzWireStream(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add(g.wire)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fuzzStream(t, stream, func(rd *Reader) (any, []byte, error) {
			req, err := rd.ReadRequest()
			if err != nil {
				return nil, nil, err
			}
			enc, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded request %+v does not encode: %v", req, err)
			}
			return req, enc, nil
		})
		fuzzStream(t, stream, func(rd *Reader) (any, []byte, error) {
			resp, err := rd.ReadResponse()
			if err != nil {
				return nil, nil, err
			}
			var enc bytes.Buffer
			if err := WriteResponse(&enc, resp); err != nil {
				t.Fatalf("decoded response does not encode: %v", err)
			}
			return resp, enc.Bytes(), nil
		})
	})
}

// fuzzStream runs one decoder over stream through a reused Reader and,
// frame by frame, through fresh ones.
func fuzzStream(t *testing.T, stream []byte, decode func(*Reader) (v any, enc []byte, err error)) {
	reused := NewReader(bytes.NewReader(stream))
	for rest := stream; ; {
		got, enc, err := decode(reused)
		// The frame a fresh Reader sees: the length prefix and as much
		// of the payload it promises as the stream holds.
		frame := rest
		if len(rest) >= 4 {
			if n, lerr := frameLen(rest); lerr == nil && 4+n <= len(rest) {
				frame = rest[:4+n]
			}
		}
		want, _, ferr := decode(NewReader(bytes.NewReader(frame)))
		if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
			t.Fatalf("reused reader: %v, fresh reader: %v, on frame %x", err, ferr, frame)
		}
		if err != nil {
			// The stream ran out between frames or inside a header, or
			// the frame was rejected; either way decoding stops here.
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection %v does not match ErrMalformed", err)
			}
			if (err == io.EOF) != (len(rest) == 0) {
				t.Fatalf("err = %v with %d bytes left", err, len(rest))
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused reader decoded %+v, fresh reader %+v", got, want)
		}
		if !bytes.Equal(enc, frame) {
			t.Fatalf("frame %x re-encodes as %x", frame, enc)
		}
		rest = rest[len(frame):]
	}
}
