// Package variant wires up the benchmarking environments of Table I:
// a simulated PM device, the simulated address space, an object pool
// and the protection runtime for each mechanism under evaluation.
package variant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/memcheck"
	"repro/internal/pmem"
	"repro/internal/pmemobj"
	"repro/internal/safepm"
	"repro/internal/telemetry"
	"repro/internal/vmem"
)

// Kind selects the protection mechanism.
type Kind string

// The evaluated variants (Table I plus the memcheck row of Table IV).
const (
	PMDK     Kind = "pmdk"
	SPP      Kind = "spp"
	SafePM   Kind = "safepm"
	Memcheck Kind = "memcheck"
	// SPPPacked is the paper's future-work oid layout (§VI-C): SPP
	// protection with the size packed into the offset word, keeping
	// oids at PMDK's 16-byte footprint.
	SPPPacked Kind = "spp-packed"
)

// Kinds lists all variants in presentation order.
var Kinds = []Kind{PMDK, SafePM, SPP, Memcheck}

// DefaultBase is where pools map in the simulated address space: low,
// as the paper configures via PMEM_MMAP_HINT=0.
const DefaultBase = 0x10000

// Options sizes the environment. The engine tuning surface is the
// embedded engine.Knobs/engine.Geometry (the single definition of
// those fields); Options adds only the environment-level sizing.
type Options struct {
	// PoolSize is the PM pool size in bytes.
	PoolSize uint64
	// TagBits is the SPP tag width (core.DefaultTagBits when zero).
	TagBits uint
	// HeapSize is the simulated volatile heap size (16 MiB when zero).
	HeapSize uint64

	engine.Geometry
	engine.Knobs
}

// poolConfig translates the environment options into a pmemobj.Config.
// Knobs and geometry pass through as whole structs, so a field added
// to engine.Knobs cannot be dropped here.
func (o Options) poolConfig() pmemobj.Config {
	return pmemobj.Config{
		Geometry: o.Geometry,
		Knobs:    o.Knobs,
	}
}

// Env is an assembled environment.
type Env struct {
	Kind Kind
	Dev  *pmem.Pool
	AS   *vmem.AddressSpace
	Pool *pmemobj.Pool
	RT   hooks.Runtime
	Heap *vmem.Heap

	base uint64
	opts Options
}

// New builds a fresh environment of the given kind.
func New(kind Kind, opts Options) (*Env, error) {
	if opts.PoolSize == 0 {
		return nil, fmt.Errorf("variant: PoolSize required")
	}
	// Enable before the device exists: pmem latches the telemetry flag
	// at pool creation so its data path stays branch-predictable.
	if opts.Telemetry {
		telemetry.Enable()
	}
	return Format(kind, pmem.NewPool(string(kind), opts.PoolSize), opts)
}

// Format builds an environment over a caller-supplied device, creating
// the pool layout on it.
func Format(kind Kind, dev *pmem.Pool, opts Options) (*Env, error) {
	if opts.HeapSize == 0 {
		opts.HeapSize = 16 << 20
	}
	if opts.TagBits == 0 {
		opts.TagBits = core.DefaultTagBits
	}
	as := vmem.New()
	heap, err := vmem.NewHeap(as, vmem.DefaultHeapBase, opts.HeapSize)
	if err != nil {
		return nil, err
	}
	cfg := opts.poolConfig()
	cfg.SPP = kind == SPP || kind == SPPPacked
	cfg.PackedOid = kind == SPPPacked
	cfg.TagBits = opts.TagBits
	pool, err := pmemobj.Create(dev, as, DefaultBase, cfg)
	if err != nil {
		return nil, err
	}
	env := &Env{Kind: kind, Dev: dev, AS: as, Pool: pool, Heap: heap, base: DefaultBase, opts: opts}
	if err := env.attach(); err != nil {
		return nil, err
	}
	return env, nil
}

func (e *Env) attach() error {
	var err error
	switch e.Kind {
	case PMDK:
		e.RT = hooks.NewNative(e.Pool, e.AS)
	case SPP, SPPPacked:
		e.RT, err = hooks.NewSPP(e.Pool, e.AS)
	case SafePM:
		e.RT, err = safepm.Attach(e.Pool, e.AS)
	case Memcheck:
		e.RT, err = memcheck.Attach(e.Pool, e.AS)
	default:
		err = fmt.Errorf("variant: unknown kind %q", e.Kind)
	}
	return err
}

// Adopt opens an environment over an existing device image (e.g. a
// crash state produced by the pmemcheck exploration engine), running
// pool recovery and attaching the runtime.
func Adopt(kind Kind, dev *pmem.Pool) (*Env, error) {
	return AdoptConfig(kind, dev, Options{})
}

// AdoptConfig is Adopt with explicit volatile knobs (arena count,
// telemetry). The knobs are kept on the environment, so a later Reopen
// preserves them — persistent geometry still comes from the pool
// header.
func AdoptConfig(kind Kind, dev *pmem.Pool, opts Options) (*Env, error) {
	if opts.HeapSize == 0 {
		opts.HeapSize = 16 << 20
	}
	as := vmem.New()
	heap, err := vmem.NewHeap(as, vmem.DefaultHeapBase, opts.HeapSize)
	if err != nil {
		return nil, err
	}
	pool, err := pmemobj.OpenConfig(dev, as, DefaultBase, opts.poolConfig())
	if err != nil {
		return nil, err
	}
	env := &Env{Kind: kind, Dev: dev, AS: as, Pool: pool, Heap: heap, base: DefaultBase, opts: opts}
	if err := env.attach(); err != nil {
		return nil, err
	}
	return env, nil
}

// Reopen simulates an application restart: the pool is unmapped and
// re-opened from the same device, running recovery and rebuilding the
// runtime's metadata. The environment's volatile knobs (arena count,
// telemetry) carry over.
func (e *Env) Reopen() error {
	if err := e.Pool.Close(); err != nil {
		return err
	}
	pool, err := pmemobj.OpenConfig(e.Dev, e.AS, e.base, e.opts.poolConfig())
	if err != nil {
		return err
	}
	e.Pool = pool
	return e.attach()
}
