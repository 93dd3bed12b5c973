// Package server is the multi-tenant KV service: a TCP front end over
// per-tenant protected pools, speaking the length-prefixed protocol of
// internal/wire. Each connection gets a goroutine; each tenant gets
// its own pmem device, pool, protection runtime and kvstore, opened
// lazily on first use and recovered (not re-created) when the device
// already holds a pool image. Admission control bounds the work the
// commit pipeline sees: at most MaxInFlight requests execute at once,
// at most MaxQueue more may wait, and everything beyond that is shed
// with a distinct StatusOverloaded reply so clients can tell "retry
// later, never executed" from a failed operation. See DESIGN.md §15.
package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/variant"
	"repro/internal/wire"
)

// Defaults.
const (
	DefaultPoolSize    = 64 << 20
	DefaultMaxInFlight = 64
	DefaultMaxTenants  = 64
)

// Config configures a Server. The zero value serves SPP-protected
// in-memory tenants with the defaults above.
type Config struct {
	// Protection selects the mechanism guarding every tenant pool:
	// "none" (or "pmdk"), "spp", "safepm", "memcheck". "spp" when
	// empty.
	Protection string
	// PoolSize is the per-tenant pool size in bytes.
	PoolSize uint64
	// TagBits is the SPP tag width (paper default when zero).
	TagBits uint
	// Shards is the kvstore shard count for newly created tenant
	// stores (0 = store default).
	Shards uint64
	// DataDir, when set, backs each tenant pool with
	// <DataDir>/<tenant>.pool: existing images are adopted through
	// recovery on open, and the working image is saved back on
	// graceful Close. Empty means volatile in-memory tenants.
	DataDir string
	// MaxInFlight bounds concurrently executing requests across all
	// connections (the admission window).
	MaxInFlight int
	// MaxQueue bounds requests waiting for the window; beyond it
	// requests are shed with StatusOverloaded. 2*MaxInFlight when
	// zero.
	MaxQueue int
	// MaxTenants bounds distinct tenants; beyond it opens fail.
	MaxTenants int
	// OpCost adds an artificial minimum service time to every executed
	// request (spent inside the admission window). Load experiments
	// and backpressure tests use it to emulate heavier engines so the
	// window saturates at modest client counts. Zero for production.
	OpCost time.Duration

	// Knobs are the engine knobs applied to every tenant environment
	// (the single definition; see internal/engine).
	engine.Knobs

	// OpenDevice overrides how a tenant's device is obtained: it
	// returns the device and whether it is fresh (fresh pools are
	// formatted; non-fresh ones are adopted through recovery). Tests
	// use it to inject tracked devices and crash images. When nil,
	// devices come from DataDir or memory per the fields above.
	OpenDevice func(tenant string) (dev *pmem.Pool, fresh bool, err error)
}

func (c Config) withDefaults() Config {
	if c.Protection == "" {
		c.Protection = "spp"
	}
	if c.PoolSize == 0 {
		c.PoolSize = DefaultPoolSize
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = DefaultMaxTenants
	}
	return c
}

func kindOf(protection string) (variant.Kind, error) {
	switch protection {
	case "none", "pmdk":
		return variant.PMDK, nil
	case "spp", "":
		return variant.SPP, nil
	case "safepm":
		return variant.SafePM, nil
	case "memcheck":
		return variant.Memcheck, nil
	}
	return "", fmt.Errorf("server: unknown protection %q", protection)
}

// Server metrics (the /metrics ops surface).
var (
	metRequests  = telemetry.Default.CounterVec("spp_server_requests_total", "requests executed per op", "op")
	metShed      = telemetry.Default.Counter("spp_server_shed_total", "requests shed by admission control")
	metMalformed = telemetry.Default.Counter("spp_server_malformed_total", "connections dropped on malformed frames")
	metOpErrors  = telemetry.Default.Counter("spp_server_op_errors_total", "requests answered with StatusError")
	metConns     = telemetry.Default.Gauge("spp_server_active_conns", "open client connections")
	metTenants   = telemetry.Default.Gauge("spp_server_tenants", "open tenant pools")
	metLatency   = telemetry.Default.HistogramBuckets("spp_server_request_ns",
		"request service time, admission wait included", telemetry.NSBuckets)
)

// opInfo is what dispatch needs to know about a wire op: its name in
// traces and its spp_server_requests_total series.
type opInfo struct {
	name     string
	requests *telemetry.Counter
}

func opNamed(name string) opInfo { return opInfo{name, metRequests.With(name)} }

// ops is resolved once and indexed by the op byte, which the decoder
// has range-checked.
var ops = [wire.OpScan + 1]opInfo{
	wire.OpGet:    opNamed("get"),
	wire.OpPut:    opNamed("put"),
	wire.OpDelete: opNamed("delete"),
	wire.OpCount:  opNamed("count"),
	wire.OpScan:   opNamed("scan"),
}

// Server is a running KV service.
type Server struct {
	cfg  Config
	kind variant.Kind

	// sampler, when non-nil, traces 1 in cfg.TraceSample requests that
	// arrive without a client-minted trace context; client-sampled
	// requests are always traced.
	sampler *trace.Sampler

	ln      net.Listener
	sem     chan struct{}
	waiting atomic.Int64
	done    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[net.Conn]struct{}
	closed  bool
}

type tenant struct {
	once  sync.Once
	env   *variant.Env
	store *kvstore.Store
	err   error
}

// New validates cfg and returns an unstarted server; follow with
// Listen or Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	kind, err := kindOf(cfg.Protection)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry {
		telemetry.Enable()
	}
	if cfg.FlightRecorder {
		telemetry.Flight.Enable()
	}
	if cfg.MetricsSample > 0 {
		telemetry.SetHookSampling(cfg.MetricsSample)
	}
	if cfg.SlowTraceUS > 0 {
		trace.SetSlowThreshold(time.Duration(cfg.SlowTraceUS) * time.Microsecond)
	}
	var sampler *trace.Sampler
	if cfg.TraceSample > 0 {
		sampler = trace.NewSampler(cfg.TraceSample)
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
	}
	return &Server{
		cfg:     cfg,
		kind:    kind,
		sampler: sampler,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		done:    make(chan struct{}),
		tenants: make(map[string]*tenant),
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves it on a background
// goroutine, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(ln) //nolint:errcheck // surfaced through Close
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln until Close. It returns nil on
// graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		metConns.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// session is what a connection owns for its lifetime: the reader whose
// buffer every decoded request aliases, and the frame every reply is
// built in. Neither outlives a request at more than wire.RetainCap.
type session struct {
	rd    *wire.Reader
	frame []byte
}

// handle serves one connection: requests execute in order, one at a
// time, each passing through admission control.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		metConns.Add(-1)
		conn.Close()
	}()
	ss := session{rd: wire.NewReader(conn)}
	for s.serveOne(conn, &ss) {
		select {
		case <-s.done:
			return
		default:
		}
	}
}

// serveOne reads one request, runs it and writes its reply, reporting
// whether the connection can carry another. The request's fields alias
// the session's read buffer and the reply — value, scan pairs, count or
// error text — is appended behind the header bytes reserved at the
// front of the session's frame, so it leaves in one Write with no copy.
func (s *Server) serveOne(conn net.Conn, ss *session) bool {
	var hdr [wire.RespHeaderLen]byte
	frame := append(ss.frame[:0], hdr[:]...)
	var status byte
	req, err := ss.rd.ReadRequest()
	switch {
	case err == nil:
		status, frame = s.dispatch(req, frame)
	case errors.Is(err, wire.ErrMalformed):
		// Best-effort reject; the stream is unsynchronized, so close
		// regardless.
		metMalformed.Inc()
		status, frame = wire.StatusError, append(frame, err.Error()...)
	default:
		return false // clean EOF, or the deadline from Close
	}
	werr := wire.WriteResponse(conn, wire.FramedResponse(status, frame))
	if cap(frame) > wire.RetainCap {
		frame = nil
	}
	ss.frame = frame
	return err == nil && werr == nil
}

// dispatch runs one request through admission control and the tenant
// store and returns the reply's status and its frame — the one it was
// given, extended by the payload. A request sampled for tracing — by
// the client via the wire context, or by the server's own sampler when
// the client sent none — materializes a trace.Req and reports queue
// wait, execution, and (via the transaction it opens) the
// commit-pipeline stages.
func (s *Server) dispatch(req wire.Request, frame []byte) (byte, []byte) {
	start := time.Now()
	op := &ops[req.Op]
	tc := req.Trace
	if !tc.Sampled && s.sampler != nil {
		tc = s.sampler.Next()
	}
	var tr *trace.Req
	if tc.Sampled {
		tr = trace.Start(tc.ID, op.name, req.Tenant)
	}
	qs := tr.Span(trace.PhaseQueue)
	if !s.admit() {
		metShed.Inc()
		tr.Drop() // never executed; keep it out of the attribution
		return wire.StatusOverloaded, frame
	}
	qs.End()
	defer func() {
		<-s.sem
		metLatency.Observe(uint64(time.Since(start).Nanoseconds()))
		tr.Finish()
	}()
	op.requests.Inc()
	es := tr.Span(trace.PhaseExec)
	defer es.End()
	if s.cfg.OpCost > 0 {
		time.Sleep(s.cfg.OpCost)
	}
	st, err := s.tenantStore(req.Tenant)
	if err != nil {
		metOpErrors.Inc()
		return wire.StatusError, append(frame, err.Error()...)
	}
	return execute(st, req, tr, frame)
}

// admit implements the bounded window + bounded queue: a free window
// slot admits immediately; otherwise the request may wait only while
// fewer than MaxQueue others are waiting, and is shed past that.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if int(s.waiting.Add(1)) > s.cfg.MaxQueue {
		s.waiting.Add(-1)
		return false
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-s.done:
		return false
	}
}

// execute applies one admitted request to a tenant store, appending the
// reply's payload to frame. Safety traps surface as StatusError with
// the audit-grade message; the server keeps serving.
func execute(st *kvstore.Store, req wire.Request, tr *trace.Req, frame []byte) (byte, []byte) {
	fail := func(err error) (byte, []byte) {
		metOpErrors.Inc()
		if hooks.IsSafetyTrap(err) {
			err = fmt.Errorf("memory-safety violation: %w", err)
		}
		return wire.StatusError, append(frame[:wire.RespHeaderLen], err.Error()...)
	}
	switch req.Op {
	case wire.OpGet:
		// The value's one copy out of PM lands behind the frame header.
		out, ok, err := st.AppendGet(frame, req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return wire.StatusNotFound, frame
		}
		return wire.StatusOK, out
	case wire.OpPut:
		if err := st.PutTraced(tr, req.Key, req.Value); err != nil {
			return fail(err)
		}
		return wire.StatusOK, frame
	case wire.OpDelete:
		ok, err := st.DeleteTraced(tr, req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return wire.StatusNotFound, frame
		}
		return wire.StatusOK, frame
	case wire.OpCount:
		n, err := st.Count()
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, wire.AppendCount(frame, n)
	case wire.OpScan:
		// The snapshot-backed scan stops at the client's limit or when
		// the next pair would overflow the response frame (one status
		// byte shares the payload budget), whichever comes first. Each
		// row is valid only inside the callback, which copies it into the
		// frame. A frame too small is grown once, sized from the first
		// pair: rows of a scan are mostly alike, and append still grows
		// it when they are not.
		const budget = wire.MaxFrame - 1
		var n uint32
		err := st.Scan(req.Key, req.Hi, func(k, v []byte) bool {
			pair := wire.ScanPairSize(len(k), len(v))
			if pair > budget-(len(frame)-wire.RespHeaderLen) {
				return false
			}
			if n == 0 {
				frame = slices.Grow(frame, scanReplyHint(pair, req.Limit, budget))
			}
			frame = wire.AppendScanPair(frame, k, v)
			n++
			return req.Limit == 0 || n < req.Limit
		})
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, frame
	}
	return fail(fmt.Errorf("server: unhandled op %d", req.Op))
}

// scanReplyHint is the payload capacity to reserve for a scan reply
// whose first pair encodes to pair bytes: room for limit such pairs,
// never past the frame budget. An unlimited scan gets room for a
// modest page rather than the whole budget — most ranges end long
// before a megabyte.
func scanReplyHint(pair int, limit uint32, budget int) int {
	const unlimitedRows = 64
	rows := budget / pair
	if limit == 0 {
		rows = min(rows, unlimitedRows)
	} else if int64(limit) < int64(rows) {
		rows = int(limit)
	}
	return rows * pair
}

// Close shuts the server down gracefully: stop accepting, nudge every
// blocked read so in-flight requests drain, wait for the handlers,
// then save (DataDir mode) and close every tenant pool.
func (s *Server) Close() error {
	var errs []error
	s.closing.Do(func() {
		close(s.done)
		s.mu.Lock()
		s.closed = true
		if s.ln != nil {
			errs = append(errs, s.ln.Close())
		}
		// Wake handlers parked in the buffered read; handlers mid-request
		// finish and write their response first (the deadline only
		// fires on the next read).
		now := time.Now()
		for conn := range s.conns {
			_ = conn.SetReadDeadline(now)
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, t := range s.tenants {
			if t.err != nil || t.env == nil {
				continue
			}
			if s.cfg.DataDir != "" && s.cfg.OpenDevice == nil {
				if err := t.env.Dev.SaveFile(s.tenantPath(name)); err != nil {
					errs = append(errs, err)
				}
			}
			if err := t.env.Pool.Close(); err != nil {
				errs = append(errs, err)
			}
			metTenants.Add(-1)
		}
		s.tenants = make(map[string]*tenant)
	})
	return errors.Join(errs...)
}

func (s *Server) tenantPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+".pool")
}

// validTenant keeps tenant names filesystem- and protocol-safe.
func validTenant(name string) bool {
	if name == "" || len(name) > wire.MaxTenantLen {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

// tenantStore returns the tenant's store, opening the tenant exactly
// once. A failed open is sticky for the tenant but does not poison the
// server.
func (s *Server) tenantStore(name string) (*kvstore.Store, error) {
	if !validTenant(name) {
		return nil, fmt.Errorf("server: invalid tenant name %q", name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("server: shutting down")
	}
	t, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= s.cfg.MaxTenants {
			s.mu.Unlock()
			return nil, fmt.Errorf("server: tenant limit %d reached", s.cfg.MaxTenants)
		}
		t = &tenant{}
		s.tenants[name] = t
	}
	s.mu.Unlock()
	t.once.Do(func() { t.env, t.store, t.err = s.openTenant(name) })
	if t.err != nil {
		return nil, t.err
	}
	return t.store, nil
}

// openTenant builds the tenant's environment: a fresh device is
// formatted, an existing image is adopted through the recovery path
// (rebuilding shard locks and protection metadata from persistent
// state).
func (s *Server) openTenant(name string) (*variant.Env, *kvstore.Store, error) {
	dev, fresh, err := s.openDevice(name)
	if err != nil {
		return nil, nil, err
	}
	opts := variant.Options{
		PoolSize: s.cfg.PoolSize,
		TagBits:  s.cfg.TagBits,
		Knobs:    s.cfg.Knobs,
	}
	var env *variant.Env
	if fresh {
		env, err = variant.Format(s.kind, dev, opts)
	} else {
		env, err = variant.AdoptConfig(s.kind, dev, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("server: open tenant %q: %w", name, err)
	}
	st, err := kvstore.Open(env.RT, kvstore.WithShards(s.cfg.Shards))
	if err != nil {
		return nil, nil, fmt.Errorf("server: open tenant %q store: %w", name, err)
	}
	metTenants.Add(1)
	return env, st, nil
}

func (s *Server) openDevice(name string) (*pmem.Pool, bool, error) {
	if s.cfg.OpenDevice != nil {
		return s.cfg.OpenDevice(name)
	}
	if s.cfg.DataDir == "" {
		return pmem.NewPool("tenant:"+name, s.cfg.PoolSize), true, nil
	}
	path := s.tenantPath(name)
	_, statErr := os.Stat(path)
	dev, err := pmem.OpenFile(path, s.cfg.PoolSize)
	if err != nil {
		return nil, false, err
	}
	return dev, os.IsNotExist(statErr), nil
}
