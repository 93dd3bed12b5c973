// Package interp executes mini-IR modules against a simulated
// environment. It models the run-time half of the SPP toolchain: an
// uninstrumented module performs raw loads and stores, while a module
// rewritten by the transform pass calls the variant's hook
// implementations at the injected sites — so an out-of-bounds access
// under SPP faults exactly as a hardened binary would.
package interp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/hooks"
	"repro/internal/ir"
	"repro/internal/pmemobj"
	"repro/internal/telemetry"
	"repro/internal/variant"
)

// ExternalFn simulates an uninstrumented library function. It receives
// already-masked pointer arguments and accesses memory raw. The args
// slice is lent for the call only (compiled execution passes a window
// of its register stack): an external that keeps it must copy it.
type ExternalFn func(m *Machine, args []uint64) (uint64, error)

// Machine runs one module against one environment.
type Machine struct {
	mod   *ir.Module
	env   *variant.Env
	enc   core.Encoding
	isSPP bool

	oids      []pmemobj.Oid
	externals map[string]ExternalFn

	steps    int
	MaxSteps int

	// NoCompile pins execution to the reference interpreter, the
	// differential oracle for the compiled dispatch. Set it before the
	// first Run; compiled functions are cached, so flipping it
	// afterwards only affects functions not yet executed.
	NoCompile bool
	compiled  map[string]*compiledFunc
	cstats    CompileStats

	// Compiled execution (compile.go): activation registers and call
	// argument lists are carved from stack below sp; cur is the running
	// activation. depth counts live activations of both executors.
	stack []uint64
	sp    int
	cur   cstate
	depth int
}

// maxCallDepth bounds depth. Both executors recurse on Go's own stack,
// so a runaway recursion must end as an error before the runtime's fatal
// stack overflow ends the process. parkedRegs is the largest register
// stack (1 MiB) an idle machine keeps.
const (
	maxCallDepth = 10000
	parkedRegs   = 1 << 17
)

// descend counts one activation of f; ascend releases it.
func (m *Machine) descend(f *ir.Func) error {
	if m.depth == maxCallDepth {
		return fmt.Errorf("interp: call depth exceeded in @%s", f.Name)
	}
	m.depth++
	return nil
}

func (m *Machine) ascend() {
	m.depth--
	if m.depth == 0 && len(m.stack) > parkedRegs {
		m.stack = nil
	}
}

// New returns a machine for the module over the environment, with the
// default external-function registry installed.
func New(mod *ir.Module, env *variant.Env) *Machine {
	m := &Machine{
		mod: mod,
		env: env,
		enc: env.Pool.Encoding(),
		// Both SPP layouts carry tags in the pointer (pmemobj.Config.SPP
		// is set for either); the packed-oid variant must not degrade
		// the tag hooks to identity.
		isSPP:    env.Kind == variant.SPP || env.Kind == variant.SPPPacked,
		MaxSteps: 10_000_000,
	}
	m.externals = map[string]ExternalFn{
		// ext_store8(p, v): an uninstrumented library writing through a
		// pointer it was handed. It dereferences raw — a tagged pointer
		// passed unmasked would fault here.
		"ext_store8": func(m *Machine, args []uint64) (uint64, error) {
			if len(args) != 2 {
				return 0, fmt.Errorf("ext_store8 wants 2 args")
			}
			return 0, m.env.AS.StoreU64(args[0], args[1])
		},
		"ext_load8": func(m *Machine, args []uint64) (uint64, error) {
			if len(args) != 1 {
				return 0, fmt.Errorf("ext_load8 wants 1 arg")
			}
			return m.env.AS.LoadU64(args[0])
		},
		"ext_identity": func(m *Machine, args []uint64) (uint64, error) {
			if len(args) != 1 {
				return 0, fmt.Errorf("ext_identity wants 1 arg")
			}
			return args[0], nil
		},
	}
	return m
}

// RegisterExternal installs or replaces an external function.
func (m *Machine) RegisterExternal(name string, fn ExternalFn) {
	m.externals[name] = fn
}

// Oid returns the oid behind a handle produced by pmalloc.
func (m *Machine) Oid(handle uint64) (pmemobj.Oid, error) {
	if handle == 0 || handle > uint64(len(m.oids)) {
		return pmemobj.OidNull, fmt.Errorf("interp: bad oid handle %d", handle)
	}
	return m.oids[handle-1], nil
}

// Run executes the named function with the given arguments and returns
// the value of its ret instruction.
func (m *Machine) Run(fn string, args ...uint64) (uint64, error) {
	f := m.mod.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", fn)
	}
	if f.External {
		return 0, fmt.Errorf("interp: %q is external", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", fn, len(f.Params), len(args))
	}
	if cf := m.compiledFor(f); cf != nil {
		return m.runCompiled(cf, args)
	}
	if err := m.descend(f); err != nil {
		return 0, err
	}
	defer m.ascend()
	vals := make(map[string]uint64, 16)
	for i, p := range f.Params {
		vals[p] = args[i]
	}
	blk := f.Blocks[0]
	for {
		next, ret, done, err := m.execBlock(f, blk, vals)
		if err != nil {
			return 0, err
		}
		if done {
			return ret, nil
		}
		blk = next
	}
}

func (m *Machine) execBlock(f *ir.Func, blk *ir.Block, vals map[string]uint64) (*ir.Block, uint64, bool, error) {
	rt := m.env.RT
	as := m.env.AS
	get := func(name string) (uint64, error) {
		v, ok := vals[name]
		if !ok {
			return 0, fmt.Errorf("interp: %s: undefined value %s", f.Name, name)
		}
		return v, nil
	}
	for _, in := range blk.Instrs {
		m.steps++
		if m.steps > m.MaxSteps {
			return nil, 0, false, fmt.Errorf("interp: step budget exceeded in %s", f.Name)
		}
		switch in.Op {
		case ir.Const:
			vals[in.Dst] = uint64(in.Imm)

		case ir.Malloc:
			size, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			p, err := m.env.Heap.Alloc(size)
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = p

		case ir.PmemAlloc:
			size, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			oid, err := rt.Alloc(size)
			if err != nil {
				return nil, 0, false, err
			}
			m.oids = append(m.oids, oid)
			vals[in.Dst] = uint64(len(m.oids))

		case ir.PmemDirect:
			h, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			oid, err := m.Oid(h)
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = rt.Direct(oid)

		case ir.Gep:
			base, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			off := in.Imm
			if len(in.Args) == 2 {
				v, err := get(in.Args[1])
				if err != nil {
					return nil, 0, false, err
				}
				off = int64(v)
			}
			// The bare GEP moves the address; the injected
			// spp.updatetag maintains the tag separately.
			vals[in.Dst] = base + uint64(off)

		case ir.Load:
			addr, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			v, err := m.load(as, addr, in.Size)
			if err != nil {
				return nil, 0, false, m.trapWithProvenance(f, in, err)
			}
			vals[in.Dst] = v

		case ir.Store:
			addr, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			v, err := get(in.Args[1])
			if err != nil {
				return nil, 0, false, err
			}
			if err := m.store(as, addr, v, in.Size); err != nil {
				return nil, 0, false, m.trapWithProvenance(f, in, err)
			}

		case ir.PtrToInt, ir.IntToPtr:
			v, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = v

		case ir.Add, ir.Sub, ir.Mul, ir.ICmpLt, ir.ICmpEq:
			a, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			b, err := get(in.Args[1])
			if err != nil {
				return nil, 0, false, err
			}
			switch in.Op {
			case ir.Add:
				vals[in.Dst] = a + b
			case ir.Sub:
				vals[in.Dst] = a - b
			case ir.Mul:
				vals[in.Dst] = a * b
			case ir.ICmpLt:
				vals[in.Dst] = b2u(a < b)
			case ir.ICmpEq:
				vals[in.Dst] = b2u(a == b)
			}

		case ir.Br:
			return f.Block(in.Sym), 0, false, nil

		case ir.CondBr:
			c, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			if c != 0 {
				return f.Block(in.Sym), 0, false, nil
			}
			return f.Block(in.SymElse), 0, false, nil

		case ir.Ret:
			var v uint64
			if len(in.Args) > 0 {
				var err error
				if v, err = get(in.Args[0]); err != nil {
					return nil, 0, false, err
				}
			}
			return nil, v, true, nil

		case ir.Call:
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				v, err := get(a)
				if err != nil {
					return nil, 0, false, err
				}
				args[i] = v
			}
			ret, err := m.Run(in.Sym, args...)
			if err != nil {
				return nil, 0, false, err
			}
			if in.Dst != "" {
				vals[in.Dst] = ret
			}

		case ir.CallExt:
			fn, ok := m.externals[in.Sym]
			if !ok {
				return nil, 0, false, fmt.Errorf("interp: unknown external @%s", in.Sym)
			}
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				v, err := get(a)
				if err != nil {
					return nil, 0, false, err
				}
				args[i] = v
			}
			ret, err := fn(m, args)
			if err != nil {
				return nil, 0, false, err
			}
			if in.Dst != "" {
				vals[in.Dst] = ret
			}

		case ir.MemCpy, ir.MemSet:
			dst, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			src, err := get(in.Args[1])
			if err != nil {
				return nil, 0, false, err
			}
			n, err := get(in.Args[2])
			if err != nil {
				return nil, 0, false, err
			}
			if err := m.memIntrinsic(in, dst, src, n); err != nil {
				return nil, 0, false, err
			}

		case ir.StrCpy:
			dst, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			src, err := get(in.Args[1])
			if err != nil {
				return nil, 0, false, err
			}
			if in.Wrapped {
				if err := hooks.Strcpy(rt, dst, src); err != nil {
					return nil, 0, false, err
				}
			} else {
				s, err := as.CString(src, 1<<20)
				if err != nil {
					return nil, 0, false, err
				}
				if err := as.StoreBytes(dst, append([]byte(s), 0)); err != nil {
					return nil, 0, false, err
				}
			}

		case ir.Flush:
			// An application-level flush forwards to the device model:
			// the cacheline holding the (untagged) address joins the
			// pending set, and the next fence persists it. Addresses
			// outside the pool (volatile memory) are a no-op, as on
			// real hardware where clwb of DRAM has no durability
			// effect. The operand is always resolved so an undefined
			// reference faults like any other use.
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			if m.env.Pool != nil && m.env.Dev != nil {
				if off, err := m.env.Pool.OffsetOf(rt.External(p)); err == nil {
					m.env.Dev.Flush(off, 1)
				}
			}

		case ir.Fence:
			// Orders pending flushes: the device copies the current
			// working contents of every pending line to the durable
			// image. Free when persistence tracking is off.
			if m.env.Dev != nil {
				m.env.Dev.Fence()
			}

		case ir.SppUpdateTag:
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			off := in.Imm
			if len(in.Args) == 2 {
				v, err := get(in.Args[1])
				if err != nil {
					return nil, 0, false, err
				}
				off = int64(v)
			}
			vals[in.Dst] = m.updateTag(p, off, in.KnownPM)

		case ir.SppCheckBound:
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			var addr uint64
			if in.KnownPM {
				addr, err = rt.CheckPM(p, in.Size)
			} else {
				addr, err = rt.Check(p, in.Size)
			}
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = addr

		case ir.SppCleanTag:
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			if m.isSPP {
				vals[in.Dst] = m.enc.CleanTag(p)
			} else {
				vals[in.Dst] = p
			}

		case ir.SppCleanExternal:
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = rt.External(p)

		case ir.SppMemIntrCheck:
			p, err := get(in.Args[0])
			if err != nil {
				return nil, 0, false, err
			}
			n, err := get(in.Args[1])
			if err != nil {
				return nil, 0, false, err
			}
			addr, err := rt.MemIntr(p, n)
			if err != nil {
				return nil, 0, false, err
			}
			vals[in.Dst] = addr

		default:
			return nil, 0, false, fmt.Errorf("interp: unimplemented op %s", in.Op)
		}
	}
	return nil, 0, false, fmt.Errorf("interp: %s/%s fell off the end", f.Name, blk.Name)
}

// updateTag is the __spp_updatetag hook: pure tag arithmetic under
// SPP, identity elsewhere.
func (m *Machine) updateTag(p uint64, off int64, knownPM bool) uint64 {
	if !m.isSPP {
		return p
	}
	if knownPM {
		return m.enc.UpdateTagDirect(p, off)
	}
	return m.enc.UpdateTag(p, off)
}

func (m *Machine) memIntrinsic(in *ir.Instr, dst, src, n uint64) error {
	rt := m.env.RT
	as := m.env.AS
	if in.Wrapped {
		if in.Op == ir.MemCpy {
			return hooks.Memcpy(rt, dst, src, n)
		}
		return hooks.Memset(rt, dst, byte(src), n)
	}
	if in.Op == ir.MemCpy {
		return as.Memmove(dst, src, n)
	}
	return as.Memset(dst, byte(src), n)
}

func (m *Machine) load(as interface {
	LoadU8(uint64) (byte, error)
	LoadU16(uint64) (uint16, error)
	LoadU32(uint64) (uint32, error)
	LoadU64(uint64) (uint64, error)
}, addr uint64, size uint64) (uint64, error) {
	switch size {
	case 1:
		v, err := as.LoadU8(addr)
		return uint64(v), err
	case 2:
		v, err := as.LoadU16(addr)
		return uint64(v), err
	case 4:
		v, err := as.LoadU32(addr)
		return uint64(v), err
	default:
		return as.LoadU64(addr)
	}
}

func (m *Machine) store(as interface {
	StoreU8(uint64, byte) error
	StoreU16(uint64, uint16) error
	StoreU32(uint64, uint32) error
	StoreU64(uint64, uint64) error
}, addr, v uint64, size uint64) error {
	switch size {
	case 1:
		return as.StoreU8(addr, byte(v))
	case 2:
		return as.StoreU16(addr, uint16(v))
	case 4:
		return as.StoreU32(addr, uint32(v))
	default:
		return as.StoreU64(addr, v)
	}
}

// trapWithProvenance files the audit record for a faulting IR access
// and annotates it with the static use-def chain of the address
// operand — the IR-level context only the interpreter has. The
// interpreter's raw loads and stores bypass the hooks.Load*/Store*
// helpers, so the access-site record is created here.
func (m *Machine) trapWithProvenance(f *ir.Func, in *ir.Instr, err error) error {
	err = hooks.Trap(m.env.RT, err)
	if hooks.IsSafetyTrap(err) && len(in.Args) > 0 {
		if chain := analysis.ProvenanceChain(f, in.Args[0], 8); len(chain) > 0 {
			telemetry.Audit.Annotate(telemetry.Audit.Total(), chain)
		}
	}
	return err
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
