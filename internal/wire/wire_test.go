package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/trace"
)

// writeRequest appends r's frame to buf.
func writeRequest(buf *bytes.Buffer, r Request) error {
	frame, err := AppendRequest(nil, r)
	buf.Write(frame)
	return err
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Tenant: "acme", Key: []byte("k1")},
		{Op: OpPut, Tenant: "acme", Key: []byte("k1"), Value: []byte("v1")},
		{Op: OpPut, Tenant: "t", Key: nil, Value: []byte("value-for-empty-key")},
		{Op: OpDelete, Tenant: "other", Key: []byte("k2")},
		{Op: OpCount, Tenant: "acme"},
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := writeRequest(&buf, r); err != nil {
			t.Fatalf("write %+v: %v", r, err)
		}
	}
	for i, want := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Op != want.Op || got.Tenant != want.Tenant ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(&buf); err != io.EOF {
		t.Errorf("after all frames: err = %v, want io.EOF", err)
	}
}

// TestTracedRequestRoundTrip covers frames carrying the trace-header
// extension: the context survives the round trip on every op,
// including a sampled context with ID zero.
func TestTracedRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Tenant: "acme", Key: []byte("k1"), Trace: trace.Ctx{ID: 0xdeadbeefcafe, Sampled: true}},
		{Op: OpPut, Tenant: "acme", Key: []byte("k1"), Value: []byte("v1"), Trace: trace.Ctx{ID: 7, Sampled: true}},
		{Op: OpDelete, Tenant: "t", Key: []byte("k2"), Trace: trace.Ctx{ID: 1}},
		{Op: OpCount, Tenant: "acme", Trace: trace.Ctx{Sampled: true}},
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := writeRequest(&buf, r); err != nil {
			t.Fatalf("write %+v: %v", r, err)
		}
	}
	for i, want := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Trace != want.Trace {
			t.Errorf("round trip %d: trace = %+v, want %+v", i, got.Trace, want.Trace)
		}
		if got.Op != want.Op || got.Tenant != want.Tenant ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestTraceWireCompat pins the backward-compatibility contract of the
// trace-header extension in both directions.
func TestTraceWireCompat(t *testing.T) {
	// New client, unsampled request: the frame must be byte-identical
	// to the pre-extension layout, so old servers decode it unchanged.
	got, err := AppendRequest(nil, Request{Op: OpPut, Tenant: "acme", Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	old := []byte{
		0, 0, 0, 12, // payload length
		OpPut,
		4, 'a', 'c', 'm', 'e',
		0, 0, 0, 1, 'k',
		'v',
	}
	if !bytes.Equal(got, old) {
		t.Errorf("unsampled frame not byte-identical to old layout:\n got %x\nwant %x", got, old)
	}
	// Old client, new server: the old-layout frame decodes with a zero
	// trace context.
	req, err := ReadRequest(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("old frame on new decoder: %v", err)
	}
	if req.Trace != (trace.Ctx{}) {
		t.Errorf("old frame decoded with trace %+v", req.Trace)
	}
	// New client, old server: a traced frame's op byte carries the high
	// bit, which the pre-extension op-range check (op > OpCount) turns
	// into a deterministic "bad op" rejection rather than a misparse.
	traced, err := AppendRequest(nil, Request{Op: OpPut, Tenant: "acme", Key: []byte("k"), Value: []byte("v"), Trace: trace.Ctx{ID: 1, Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if op := traced[4]; op&OpTraceFlag == 0 || op <= OpCount {
		t.Errorf("traced op byte %#x would pass an old server's op check", op)
	}
}

// TestScanRequestRoundTrip covers the OpScan bound extension: lo/hi
// bounds and the limit survive the round trip, with and without a
// trace header, and empty bounds decode as nil (unbounded).
func TestScanRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpScan, Tenant: "acme", Key: []byte("a"), Hi: []byte("m"), Limit: 10},
		{Op: OpScan, Tenant: "acme", Key: nil, Hi: nil, Limit: 0},
		{Op: OpScan, Tenant: "t", Key: []byte("k-000"), Hi: nil, Limit: 1},
		{Op: OpScan, Tenant: "t", Key: nil, Hi: []byte("zz"), Limit: 1 << 20,
			Trace: trace.Ctx{ID: 99, Sampled: true}},
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := writeRequest(&buf, r); err != nil {
			t.Fatalf("write %+v: %v", r, err)
		}
	}
	for i, want := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Op != OpScan || got.Tenant != want.Tenant ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Hi, want.Hi) ||
			got.Limit != want.Limit || got.Trace != want.Trace || got.Value != nil {
			t.Errorf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestScanResultRoundTrip(t *testing.T) {
	var payload []byte
	pairs := []KV{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: nil},
		{Key: nil, Value: []byte("empty-key")},
	}
	for _, p := range pairs {
		payload = AppendScanPair(payload, p.Key, p.Value)
	}
	got, err := ParseScanResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("parsed %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Errorf("pair %d: got %q=%q, want %q=%q", i, got[i].Key, got[i].Value, pairs[i].Key, pairs[i].Value)
		}
	}
	empty, err := ParseScanResult(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty payload: %v pairs, err %v", empty, err)
	}
	for name, b := range map[string][]byte{
		"short key length":   {0, 0, 1},
		"key overrun":        {0, 0, 0, 9, 'k'},
		"missing value len":  {0, 0, 0, 1, 'k', 0},
		"value overrun":      {0, 0, 0, 1, 'k', 0, 0, 0, 9, 'v'},
		"trailing half pair": AppendScanPair(nil, []byte("k"), []byte("v"))[:11],
	} {
		if _, err := ParseScanResult(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	resps := []Response{
		{Status: StatusOK, Payload: []byte("value")},
		{Status: StatusNotFound},
		{Status: StatusOverloaded},
		{Status: StatusError, Payload: []byte("boom")},
		{Status: StatusOK, Payload: AppendCount(nil, 42)},
	}
	for _, r := range resps {
		if err := WriteResponse(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range resps {
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Status != want.Status || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
	n, err := ParseCount(AppendCount(nil, 42))
	if err != nil || n != 42 {
		t.Errorf("ParseCount = %d, %v", n, err)
	}
}

// TestMalformedFrames feeds broken byte streams and asserts every one
// is rejected with ErrMalformed (never a panic, never a bogus decode).
func TestMalformedFrames(t *testing.T) {
	valid, err := AppendRequest(nil, Request{Op: OpPut, Tenant: "t", Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	cases := map[string][]byte{
		"zero length":        binary.BigEndian.AppendUint32(nil, 0),
		"oversize length":    append(oversize, 0xff),
		"truncated payload":  valid[:len(valid)-1],
		"short payload":      {0, 0, 0, 2, OpGet, 1},
		"bad op":             {0, 0, 0, 7, 99, 1, 't', 0, 0, 0, 1, 'k'},
		"zero tenant":        {0, 0, 0, 7, OpGet, 0, 't', 0, 0, 0, 1},
		"tenant overrun":     {0, 0, 0, 7, OpGet, 200, 't', 0, 0, 0, 1},
		"key overrun":        {0, 0, 0, 8, OpGet, 1, 't', 0, 0, 0, 99, 'k'},
		"value on GET":       {0, 0, 0, 9, OpGet, 1, 't', 0, 0, 0, 1, 'k', 'v'},
		"garbage everywhere": bytes.Repeat([]byte{0xee}, 16),
		// Trace-header extension: the flagged op promises 9 more header
		// bytes; frames that break that promise are rejected before the
		// rest of the payload is interpreted.
		"truncated trace header": {0, 0, 0, 8, OpGet | OpTraceFlag, 0, 0, 0, 0, 0, 0, 0},
		"reserved trace flags": {0, 0, 0, 16, OpGet | OpTraceFlag,
			0, 0, 0, 0, 0, 0, 0, 1, 0x02, // ID 1, flags with reserved bit
			1, 't', 0, 0, 0, 0},
		"empty trace header": {0, 0, 0, 16, OpGet | OpTraceFlag,
			0, 0, 0, 0, 0, 0, 0, 0, 0x00, // ID 0, unsampled: header says nothing
			1, 't', 0, 0, 0, 0},
		// Scan bound extension: OpScan promises `u32 hiLen | hi | u32
		// limit` after the key, sized exactly. Frames that are short,
		// overrun, or carry trailing bytes are rejected.
		"scan missing extension": {0, 0, 0, 8, OpScan, 1, 't', 0, 0, 0, 1, 'k'},
		"scan truncated limit": {0, 0, 0, 15, OpScan, 1, 't', 0, 0, 0, 1, 'k',
			0, 0, 0, 1, 'h', 0, 0},
		"scan hi overrun": {0, 0, 0, 13, OpScan, 1, 't', 0, 0, 0, 1, 'k',
			0, 0, 0, 5, 'h'},
		"scan trailing garbage": {0, 0, 0, 17, OpScan, 1, 't', 0, 0, 0, 1, 'k',
			0, 0, 0, 0, 0, 0, 0, 0, 0xee},
	}
	for name, b := range cases {
		_, err := ReadRequest(bytes.NewReader(b))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestEncodeRejectsBadRequests(t *testing.T) {
	for name, r := range map[string]Request{
		"bad op":        {Op: 0, Tenant: "t"},
		"empty tenant":  {Op: OpGet},
		"long tenant":   {Op: OpGet, Tenant: string(bytes.Repeat([]byte{'a'}, 300))},
		"huge value":    {Op: OpPut, Tenant: "t", Value: make([]byte, MaxFrame)},
		"hi on GET":     {Op: OpGet, Tenant: "t", Key: []byte("k"), Hi: []byte("z")},
		"limit on PUT":  {Op: OpPut, Tenant: "t", Key: []byte("k"), Value: []byte("v"), Limit: 5},
		"value on SCAN": {Op: OpScan, Tenant: "t", Key: []byte("k"), Value: []byte("v")},
	} {
		if _, err := AppendRequest(nil, r); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestFramedResponseSameBytes: a response built in place behind the
// reserved header goes on the wire byte for byte as the same payload
// handed over as a plain Response, and is written from the buffer it
// was built in.
func TestFramedResponseSameBytes(t *testing.T) {
	frame := make([]byte, RespHeaderLen, 64)
	frame = AppendScanPair(frame, []byte("k1"), []byte("v1"))
	frame = AppendScanPair(frame, []byte("key-2"), nil)
	payload := append([]byte(nil), frame[RespHeaderLen:]...)

	var plain, framed bytes.Buffer
	if err := WriteResponse(&plain, Response{Status: StatusOK, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	resp := FramedResponse(StatusOK, frame)
	if !bytes.Equal(resp.Payload, payload) {
		t.Fatalf("framed payload = %x, want %x", resp.Payload, payload)
	}
	if err := WriteResponse(&framed, resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(framed.Bytes(), plain.Bytes()) {
		t.Errorf("framed response differs on the wire:\n got %x\nwant %x", framed.Bytes(), plain.Bytes())
	}
	if !bytes.Equal(frame, plain.Bytes()) {
		t.Error("WriteResponse did not fill the header into the caller's frame")
	}
	got, err := ReadResponse(&framed)
	if err != nil || got.Status != StatusOK || !bytes.Equal(got.Payload, payload) {
		t.Errorf("framed response read back as %+v, %v", got, err)
	}
	// An empty scan is a header and nothing else.
	framed.Reset()
	if err := WriteResponse(&framed, FramedResponse(StatusOK, make([]byte, RespHeaderLen))); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 1, StatusOK}; !bytes.Equal(framed.Bytes(), want) {
		t.Errorf("empty framed response = %x, want %x", framed.Bytes(), want)
	}
	if err := WriteResponse(&framed, FramedResponse(StatusOK, make([]byte, RespHeaderLen+MaxFrame))); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize framed response: err = %v, want ErrFrameTooLarge", err)
	}
}
