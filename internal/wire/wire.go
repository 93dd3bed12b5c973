// Package wire is the KV service's length-prefixed binary protocol,
// shared by the server (internal/server) and the client library
// (repro/client). A connection carries a sequence of request frames
// and their responses in order; each frame is one operation against
// one tenant's store.
//
// Request frame layout (all integers big-endian):
//
//	u32  payload length (bytes after this field)
//	u8   op              (OpGet, OpPut, OpDelete, OpCount, OpScan;
//	                      high bit = OpTraceFlag, a trace header
//	                      follows)
//	u64  trace ID        (only with OpTraceFlag)
//	u8   trace flags     (only with OpTraceFlag; bit 0 = sampled,
//	                      other bits reserved and must be zero)
//	u8   tenant length   (1..MaxTenantLen)
//	...  tenant
//	u32  key length
//	...  key             (SCAN: the inclusive lower bound; empty =
//	                      from the start)
//	...  value           (rest of the frame; PUT only)
//
// A SCAN frame replaces the value tail with an exactly-sized bound
// extension — anything shorter or longer is malformed:
//
//	u32  hi length
//	...  hi              (exclusive upper bound; empty = unbounded)
//	u32  limit           (max pairs returned; 0 = no limit beyond the
//	                      response frame budget)
//
// The trace header is a backward-compatible extension: a client only
// emits it for requests actually chosen for tracing, so a new client
// with tracing disabled (or sampling past this request) produces
// byte-identical frames to the original protocol and old servers are
// none the wiser. An old server receiving a traced frame rejects it
// deterministically ("bad op") rather than misparsing it — tracing
// against a server that predates the extension is a configuration
// error, not a silent corruption.
//
// Response frame layout:
//
//	u32  payload length
//	u8   status          (StatusOK, StatusNotFound, StatusError,
//	                      StatusOverloaded)
//	...  payload         (GET: value; COUNT: u64; SCAN: repeated
//	                      {u32 klen, key, u32 vlen, value} pairs in
//	                      ascending key order; errors: message)
//
// StatusOverloaded is distinct from StatusError so clients can tell
// admission-control shedding (retry later, the request was never
// executed) from a failed operation.
//
// Buffer ownership: a connection decodes through one Reader, whose
// buffer the decoded Key, Value, Hi and Payload alias until the next
// read, and builds each reply in place behind RespHeaderLen reserved
// bytes (FramedResponse), so a frame is copied once on its way in and
// not at all on its way out. See DESIGN.md §15.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/trace"
)

// Ops.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpCount
	OpScan

	// OpTraceFlag marks a request frame carrying the 9-byte trace
	// header between the op byte and the tenant length.
	OpTraceFlag byte = 0x80
)

// Trace header layout.
const (
	traceHdrLen      = 8 + 1 // u64 ID + u8 flags
	traceFlagSampled = 0x01
)

// Statuses.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusError
	StatusOverloaded
)

// Limits. MaxFrame bounds a whole request or response payload; a
// reader rejects larger length prefixes without allocating, so a
// garbage prefix cannot balloon memory.
const (
	MaxFrame     = 1 << 20
	MaxTenantLen = 255

	reqHeader  = 1 + 1 + 4 // op + tenant length + key length
	scanExtLen = 4 + 4     // hi length + limit (hi bytes in between)

	// RetainCap is the largest buffer a connection keeps between
	// requests. One that a near-MaxFrame request or reply grew past it
	// is dropped once that request is done, so an idle connection pins
	// at most this much per buffer.
	RetainCap = 64 << 10

	readerInitial = 4 << 10 // a Reader's first buffer
)

// Protocol errors. ErrMalformed wraps every framing violation; after
// one the stream is unsynchronized and must be closed.
var (
	ErrMalformed     = errors.New("wire: malformed frame")
	ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds %d bytes", ErrMalformed, MaxFrame)
	ErrOverloaded    = errors.New("wire: server overloaded")
)

// Request is one decoded operation. A zero Trace means the frame
// carried no trace header (and none is emitted on encode). Hi and
// Limit are meaningful only for OpScan, whose Key is the inclusive
// lower bound.
type Request struct {
	Op     byte
	Tenant string
	Key    []byte
	Value  []byte
	Hi     []byte
	Limit  uint32
	Trace  trace.Ctx
}

// Response is one decoded reply.
type Response struct {
	Status  byte
	Payload []byte

	// frame, set by FramedResponse, is the buffer Payload sits in,
	// RespHeaderLen bytes from its start.
	frame []byte
}

// RespHeaderLen is what WriteResponse puts in front of a payload: the
// u32 frame length and the status byte.
const RespHeaderLen = 4 + 1

// FramedResponse returns the response whose payload is
// frame[RespHeaderLen:]. The caller built the payload in place behind
// RespHeaderLen reserved bytes, so WriteResponse fills in the header
// and writes frame as it stands instead of copying the payload into a
// second buffer. The frame on the wire is the same either way.
func FramedResponse(status byte, frame []byte) Response {
	return Response{Status: status, Payload: frame[RespHeaderLen:], frame: frame}
}

// AppendRequest encodes r onto dst and returns the extended slice.
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if r.Op < OpGet || r.Op > OpScan {
		return dst, fmt.Errorf("%w: bad op %d", ErrMalformed, r.Op)
	}
	if r.Op != OpScan && (len(r.Hi) != 0 || r.Limit != 0) {
		return dst, fmt.Errorf("%w: op %d carries scan bounds", ErrMalformed, r.Op)
	}
	if r.Op == OpScan && len(r.Value) != 0 {
		return dst, fmt.Errorf("%w: scan carries a value", ErrMalformed)
	}
	if len(r.Tenant) == 0 || len(r.Tenant) > MaxTenantLen {
		return dst, fmt.Errorf("%w: tenant length %d", ErrMalformed, len(r.Tenant))
	}
	traced := r.Trace != (trace.Ctx{})
	n := reqHeader + len(r.Tenant) + len(r.Key) + len(r.Value)
	if r.Op == OpScan {
		n += scanExtLen + len(r.Hi)
	}
	if traced {
		n += traceHdrLen
	}
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = slices.Grow(dst, 4+n)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	if traced {
		dst = append(dst, r.Op|OpTraceFlag)
		dst = binary.BigEndian.AppendUint64(dst, r.Trace.ID)
		var flags byte
		if r.Trace.Sampled {
			flags |= traceFlagSampled
		}
		dst = append(dst, flags)
	} else {
		dst = append(dst, r.Op)
	}
	dst = append(dst, byte(len(r.Tenant)))
	dst = append(dst, r.Tenant...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Key)))
	dst = append(dst, r.Key...)
	if r.Op == OpScan {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Hi)))
		dst = append(dst, r.Hi...)
		dst = binary.BigEndian.AppendUint32(dst, r.Limit)
		return dst, nil
	}
	dst = append(dst, r.Value...)
	return dst, nil
}

// Reader decodes the frames of one connection out of one buffer it
// owns. In the steady state — a peer that sends a frame and waits for
// the reply — a frame costs one Read on the connection and no
// allocation. What ReadRequest and ReadResponse return aliases the
// buffer: Key, Value, Hi and Payload are valid until the next read on
// the same Reader, and whoever keeps one longer copies it.
type Reader struct {
	r          io.Reader
	buf        []byte // buf[start:end] is read but not yet decoded
	start, end int
	// exact makes the Reader take no byte past the frame it was asked
	// for: the one-shot ReadRequest wrapper reads from a stream it does
	// not own.
	exact bool
	// tenant is the last tenant decoded; a connection nearly always
	// repeats it, and then the string is reused instead of allocated.
	tenant string
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Cap is the size of the buffer the Reader holds — what it pins while
// its connection is idle.
func (rd *Reader) Cap() int { return len(rd.buf) }

// fill reads until n undecoded bytes are buffered, making room for
// them first: by moving the undecoded bytes to the front, or in a
// larger buffer. The caller has checked n against MaxFrame.
func (rd *Reader) fill(n int) error {
	have := rd.end - rd.start
	if have >= n {
		return nil
	}
	if rd.start+n > len(rd.buf) {
		buf := rd.buf
		if n > len(buf) {
			size := n
			if !rd.exact {
				size = max(n, 2*len(buf), readerInitial)
			}
			buf = make([]byte, size)
		}
		copy(buf, rd.buf[rd.start:rd.end])
		rd.buf, rd.start, rd.end = buf, 0, have
	}
	lim := len(rd.buf)
	if rd.exact {
		lim = rd.start + n
	}
	m, err := io.ReadAtLeast(rd.r, rd.buf[rd.end:lim], n-have)
	rd.end += m
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// frame returns the payload of the next frame, enforcing MaxFrame
// before the buffer grows for it. An emptied buffer larger than
// RetainCap is dropped first — that is, before the connection goes idle
// in the read.
func (rd *Reader) frame() ([]byte, error) {
	if rd.start == rd.end {
		rd.start, rd.end = 0, 0
		if len(rd.buf) > RetainCap {
			rd.buf = nil
		}
	}
	if err := rd.fill(4); err != nil {
		return nil, err // io.EOF between frames means a clean close
	}
	n, err := frameLen(rd.buf[rd.start:])
	if err != nil {
		return nil, err
	}
	if err := rd.fill(4 + n); err != nil {
		return nil, truncated(err)
	}
	payload := rd.buf[rd.start+4 : rd.start+4+n : rd.start+4+n]
	rd.start += 4 + n
	return payload, nil
}

// frameLen decodes and checks a frame's length prefix.
func frameLen(prefix []byte) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// truncated wraps the error that cut a frame short.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: truncated frame: %v", ErrMalformed, err)
}

// ReadRequest decodes the next request frame. Errors matching
// ErrMalformed mean the stream cannot be resynchronized.
func (rd *Reader) ReadRequest() (Request, error) {
	payload, err := rd.frame()
	if err != nil {
		return Request{}, err
	}
	if len(payload) < reqHeader {
		return Request{}, fmt.Errorf("%w: request payload %d bytes", ErrMalformed, len(payload))
	}
	op := payload[0]
	var tc trace.Ctx
	if op&OpTraceFlag != 0 {
		op &^= OpTraceFlag
		if len(payload) < reqHeader+traceHdrLen {
			return Request{}, fmt.Errorf("%w: truncated trace header in %d-byte payload", ErrMalformed, len(payload))
		}
		tc.ID = binary.BigEndian.Uint64(payload[1:])
		flags := payload[1+8]
		if flags&^traceFlagSampled != 0 {
			return Request{}, fmt.Errorf("%w: reserved trace flags %#x", ErrMalformed, flags)
		}
		tc.Sampled = flags&traceFlagSampled != 0
		if tc == (trace.Ctx{}) {
			return Request{}, fmt.Errorf("%w: empty trace header", ErrMalformed)
		}
		// Cut the header out so the rest of the frame parses at the
		// untraced offsets (index 0 becomes dead padding where the op
		// byte sat).
		payload = payload[traceHdrLen:]
	}
	if op < OpGet || op > OpScan {
		return Request{}, fmt.Errorf("%w: bad op %d", ErrMalformed, op)
	}
	tlen := int(payload[1])
	if tlen == 0 || 2+tlen+4 > len(payload) {
		return Request{}, fmt.Errorf("%w: tenant length %d in %d-byte payload", ErrMalformed, tlen, len(payload))
	}
	if tenant := payload[2 : 2+tlen]; string(tenant) != rd.tenant {
		rd.tenant = string(tenant)
	}
	rest := payload[2+tlen:]
	klen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if klen > len(rest) {
		return Request{}, fmt.Errorf("%w: key length %d exceeds remaining %d bytes", ErrMalformed, klen, len(rest))
	}
	req := Request{Op: op, Tenant: rd.tenant, Key: rest[:klen:klen], Value: rest[klen:], Trace: tc}
	if op == OpScan {
		// The tail is the bound extension, sized exactly: a truncated
		// hi, a missing limit, or trailing garbage all fold to
		// ErrMalformed.
		ext := req.Value
		req.Value = nil
		if len(ext) < scanExtLen {
			return Request{}, fmt.Errorf("%w: scan extension %d bytes", ErrMalformed, len(ext))
		}
		hlen := int(binary.BigEndian.Uint32(ext))
		if len(ext) != scanExtLen+hlen {
			return Request{}, fmt.Errorf("%w: scan extension %d bytes, want %d for hi length %d", ErrMalformed, len(ext), scanExtLen+hlen, hlen)
		}
		if hlen > 0 {
			req.Hi = ext[4 : 4+hlen : 4+hlen]
		}
		req.Limit = binary.BigEndian.Uint32(ext[4+hlen:])
		return req, nil
	}
	if op != OpPut && len(req.Value) != 0 {
		return Request{}, fmt.Errorf("%w: op %d carries a value", ErrMalformed, op)
	}
	return req, nil
}

// ReadResponse decodes the next response frame.
func (rd *Reader) ReadResponse() (Response, error) {
	payload, err := rd.frame()
	if err != nil {
		return Response{}, err
	}
	return Response{Status: payload[0], Payload: payload[1:]}, nil
}

// ReadRequest decodes one request frame from r through a Reader of its
// own that takes exactly that frame off r, so what it returns is the
// caller's to keep. A connection holds a Reader instead.
func ReadRequest(r io.Reader) (Request, error) {
	return (&Reader{r: r, exact: true}).ReadRequest()
}

// WriteResponse writes one response frame in one Write. A
// FramedResponse goes out from the buffer it was built in — the
// server's only path. A Response that is a bare status and payload is
// first copied into a frame of its own: benchmarks/ and the tests hand
// those over, product code does not.
func WriteResponse(w io.Writer, resp Response) error {
	buf := resp.frame
	if buf == nil {
		if 1+len(resp.Payload) > MaxFrame {
			return ErrFrameTooLarge
		}
		buf = make([]byte, RespHeaderLen+len(resp.Payload))
		copy(buf[RespHeaderLen:], resp.Payload)
	}
	n := len(buf) - 4 // status byte + payload
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf[4] = resp.Status
	_, err := w.Write(buf)
	return err
}

// ReadOwnedResponse reads one response frame from r for a caller that
// keeps the payload: the frame header lands in hdr (RespHeaderLen bytes
// of the caller's), and the payload in a slice allocated for exactly
// its size — none at all for a reply that is only a status.
func ReadOwnedResponse(r io.Reader, hdr []byte) (Response, error) {
	hdr = hdr[:RespHeaderLen]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Response{}, err // io.EOF between frames means a clean close
	}
	n, err := frameLen(hdr)
	if err != nil {
		return Response{}, err
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Response{}, truncated(err)
	}
	resp := Response{Status: hdr[4]}
	if n > 1 {
		resp.Payload = make([]byte, n-1)
		if _, err := io.ReadFull(r, resp.Payload); err != nil {
			return Response{}, truncated(err)
		}
	}
	return resp, nil
}

// ReadResponse decodes one response frame from r.
func ReadResponse(r io.Reader) (Response, error) {
	return ReadOwnedResponse(r, make([]byte, RespHeaderLen))
}

// AppendCount encodes a COUNT result onto dst.
func AppendCount(dst []byte, n uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, n)
}

// ParseCount decodes a COUNT result payload.
func ParseCount(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: count payload %d bytes", ErrMalformed, len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}

// KV is one scanned key/value pair.
type KV struct {
	Key   []byte
	Value []byte
}

// ScanPairSize is the encoded size of one scan result pair — the
// server budgets response frames with it.
func ScanPairSize(klen, vlen int) int { return 8 + klen + vlen }

// AppendScanPair encodes one pair onto a SCAN response payload.
func AppendScanPair(dst, key, value []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(value)))
	dst = append(dst, value...)
	return dst
}

// scanPair splits the first pair off a SCAN response payload.
func scanPair(payload []byte) (kv KV, rest []byte, err error) {
	if len(payload) < 4 {
		return KV{}, nil, fmt.Errorf("%w: scan result tail %d bytes", ErrMalformed, len(payload))
	}
	klen := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	if klen > len(payload) {
		return KV{}, nil, fmt.Errorf("%w: scan result key length %d exceeds remaining %d", ErrMalformed, klen, len(payload))
	}
	kv.Key = payload[:klen]
	payload = payload[klen:]
	if len(payload) < 4 {
		return KV{}, nil, fmt.Errorf("%w: scan result missing value length", ErrMalformed)
	}
	vlen := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	if vlen > len(payload) {
		return KV{}, nil, fmt.Errorf("%w: scan result value length %d exceeds remaining %d", ErrMalformed, vlen, len(payload))
	}
	kv.Value = payload[:vlen]
	return kv, payload[vlen:], nil
}

// ParseScanResult decodes a SCAN response payload into its pairs, which
// alias payload. One pass validates and counts them, so the slice is
// allocated once at its final size; the second fills it.
func ParseScanResult(payload []byte) ([]KV, error) {
	n := 0
	for rest := payload; len(rest) > 0; n++ {
		var err error
		if _, rest, err = scanPair(rest); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]KV, n)
	for i := range out {
		out[i], payload, _ = scanPair(payload)
	}
	return out, nil
}
