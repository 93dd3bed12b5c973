package interp

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/hooks"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Closure compilation (DESIGN.md §14). Run lowers each function once
// into a flat array of thunks — one Go closure per instruction, with
// operands resolved to register slots and every variant decision
// (SPP vs identity tag hooks, KnownPM specializations, access width)
// baked in at compile time. Execution is then an indirect call per
// instruction instead of a switch on opcode plus per-name map lookups,
// so a surviving SPP hook costs what the hook itself costs.
//
// A call is decided once too: a call thunk links on first execution —
// callee resolved and compiled — and from then on enters the callee's
// thunk loop directly. Registers and argument lists live on one
// machine-owned stack, so a call allocates nothing. A callee that is
// unknown, external, of the wrong arity or declined to the interpreter
// never links; that site keeps going through Machine.Run.
//
// The interpreter in interp.go remains the reference semantics and the
// differential oracle (Machine.NoCompile selects it). The two must be
// observably identical; the one semantic hazard is undefined values.
// The interpreter faults when a use reads a name no executed
// instruction has defined; a register slot would silently read zero.
// Compilation therefore requires analysis.UsesDominated — every use
// dominated by a definition, so no execution can read-before-write —
// and any function failing it (or using an op the compiler does not
// know) falls back to interpretation, recorded in CompileStats and the
// spp_interp_fallback_total counter.

var (
	metCompiledFuncs  = telemetry.Default.Counter("spp_compiled_funcs_total", "IR functions lowered to closure chains")
	metInterpFallback = telemetry.Default.Counter("spp_interp_fallback_total", "functions declined to the reference interpreter")
	metCompileNs      = telemetry.Default.Histogram("spp_compile_ns", "per-function closure-compilation time (ns)")
)

// CompileStats summarizes one machine's compilation activity.
type CompileStats struct {
	// Funcs is the number of functions lowered to closure chains.
	Funcs int
	// Thunks is the total number of instruction thunks emitted.
	Thunks int
	// Hooks is how many of those thunks are SPP hook or persistence
	// sites (checkbound/updatetag/cleantag/clean-external/memintr,
	// flush, fence) — direct calls in compiled execution.
	Hooks int
	// Fallbacks is the number of functions declined to the interpreter
	// (non-dominated uses, empty or unterminated bodies).
	Fallbacks int
}

// cstate is the state of the running compiled activation: register
// file, thunk program counter and the ret/done latch. The machine has
// one (Machine.cur); a caller's copy waits in runCompiled's Go frame.
type cstate struct {
	m    *Machine
	regs []uint64
	pc   int
	ret  uint64
	done bool
}

// thunk executes one lowered instruction against the activation state.
type thunk func(s *cstate) error

// compiledFunc is one function lowered to threaded code.
type compiledFunc struct {
	f      *ir.Func
	nRegs  int
	params []int // register slot of each parameter
	code   []thunk
}

// compiledFor returns the lowered form of f, compiling on first use, or
// nil when f executes on the interpreter (NoCompile or fallback).
func (m *Machine) compiledFor(f *ir.Func) *compiledFunc {
	if m.NoCompile {
		return nil
	}
	if cf, ok := m.compiled[f.Name]; ok {
		return cf
	}
	start := time.Now()
	cf := m.compile(f)
	if telemetry.On() {
		metCompileNs.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	if m.compiled == nil {
		m.compiled = map[string]*compiledFunc{}
	}
	m.compiled[f.Name] = cf
	if cf == nil {
		m.cstats.Fallbacks++
		metInterpFallback.Inc()
	} else {
		m.cstats.Funcs++
		m.cstats.Thunks += len(cf.code)
		metCompiledFuncs.Inc()
	}
	return cf
}

// CompileAll eagerly lowers every defined function in the module and
// returns the cumulative stats (sppc -stats reports them).
func (m *Machine) CompileAll() CompileStats {
	for _, f := range m.mod.Funcs {
		if !f.External {
			m.compiledFor(f)
		}
	}
	return m.cstats
}

// CompileStats returns the compilation counters accumulated so far.
func (m *Machine) CompileStats() CompileStats { return m.cstats }

// push carves n uncleared words off the register stack; the caller pops
// them with m.sp -= n. Growth copies nothing: a live frame is reached
// only through its own slice, which keeps the array it was carved from.
func (m *Machine) push(n int) []uint64 {
	top := m.sp + n
	if top > len(m.stack) {
		m.stack = make([]uint64, max(2*len(m.stack), top, 256))
	}
	m.sp = top
	return m.stack[top-n : top : top]
}

// window pushes the values of the given registers as one argument list,
// lent to the callee until the caller pops it. A callee's own frame (and
// whatever an external re-entering Run pushes) lands above it.
func (s *cstate) window(slots []int) []uint64 {
	w := s.m.push(len(slots))
	for i, r := range slots {
		w[i] = s.regs[r]
	}
	return w
}

// runCompiled drives one activation of a compiled function: one indirect
// call per instruction, sharing the machine's step budget with the
// interpreter. Frame and call level are released on every way out.
func (m *Machine) runCompiled(cf *compiledFunc, args []uint64) (ret uint64, err error) {
	if err = m.descend(cf.f); err != nil {
		return 0, err
	}
	s := &m.cur
	caller := *s
	*s = cstate{m: m, regs: m.push(cf.nRegs)}
	clear(s.regs)
	for i, r := range cf.params {
		s.regs[r] = args[i]
	}
	code := cf.code
	for !s.done {
		m.steps++
		if m.steps > m.MaxSteps {
			err = fmt.Errorf("interp: step budget exceeded in %s", cf.f.Name)
			break
		}
		t := code[s.pc]
		s.pc++
		if err = t(s); err != nil {
			break
		}
	}
	if err == nil {
		ret = s.ret
	}
	*s = caller
	m.sp -= cf.nRegs
	m.ascend()
	return ret, err
}

// link resolves a call site's callee once it can: nil keeps the site on
// Machine.Run, which owns the error for an unknown, external or
// wrong-arity callee and interprets one that declined compilation.
func (m *Machine) link(sym string, nargs int) *compiledFunc {
	f := m.mod.Func(sym)
	if f == nil || f.External || len(f.Params) != nargs {
		return nil
	}
	return m.compiledFor(f)
}

// compile lowers f, or returns nil to decline it to the interpreter.
func (m *Machine) compile(f *ir.Func) *compiledFunc {
	if !analysis.UsesDominated(f) {
		return nil
	}
	for _, blk := range f.Blocks {
		if len(blk.Instrs) == 0 {
			return nil
		}
		switch blk.Instrs[len(blk.Instrs)-1].Op {
		case ir.Br, ir.CondBr, ir.Ret:
		default:
			return nil // no terminator: interp reports fell-off-the-end
		}
	}

	cf := &compiledFunc{f: f}
	regOf := map[string]int{}
	reg := func(name string) int {
		if r, ok := regOf[name]; ok {
			return r
		}
		r := cf.nRegs
		cf.nRegs++
		regOf[name] = r
		return r
	}
	for _, p := range f.Params {
		cf.params = append(cf.params, reg(p))
	}

	// Thunk addresses: one thunk per instruction, blocks laid out in
	// declaration order. Branches jump to a block's first thunk.
	blockPC := map[string]int{}
	pc := 0
	for _, blk := range f.Blocks {
		blockPC[blk.Name] = pc
		pc += len(blk.Instrs)
	}

	cf.code = make([]thunk, 0, pc)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			t, isHook := m.lower(cf, f, in, reg, blockPC)
			if t == nil {
				return nil // unknown op: interp owns the error
			}
			if isHook {
				m.cstats.Hooks++
			}
			cf.code = append(cf.code, t)
		}
	}
	return cf
}

// lower emits the thunk for one instruction, with operands bound to
// register slots and all mode decisions resolved now. The second result
// marks SPP hook / persistence sites.
func (m *Machine) lower(cf *compiledFunc, f *ir.Func, in *ir.Instr,
	reg func(string) int, blockPC map[string]int) (thunk, bool) {
	rt := m.env.RT
	as := m.env.AS
	enc := m.enc
	argR := func(i int) int { return reg(in.Args[i]) }

	switch in.Op {
	case ir.Const:
		d, imm := reg(in.Dst), uint64(in.Imm)
		return func(s *cstate) error { s.regs[d] = imm; return nil }, false

	case ir.Malloc:
		d, a := reg(in.Dst), argR(0)
		heap := m.env.Heap
		return func(s *cstate) error {
			p, err := heap.Alloc(s.regs[a])
			if err != nil {
				return err
			}
			s.regs[d] = p
			return nil
		}, false

	case ir.PmemAlloc:
		d, a := reg(in.Dst), argR(0)
		return func(s *cstate) error {
			oid, err := rt.Alloc(s.regs[a])
			if err != nil {
				return err
			}
			s.m.oids = append(s.m.oids, oid)
			s.regs[d] = uint64(len(s.m.oids))
			return nil
		}, false

	case ir.PmemDirect:
		d, a := reg(in.Dst), argR(0)
		return func(s *cstate) error {
			oid, err := s.m.Oid(s.regs[a])
			if err != nil {
				return err
			}
			s.regs[d] = rt.Direct(oid)
			return nil
		}, false

	case ir.Gep:
		d, a := reg(in.Dst), argR(0)
		if len(in.Args) == 2 {
			b := argR(1)
			return func(s *cstate) error { s.regs[d] = s.regs[a] + s.regs[b]; return nil }, false
		}
		off := uint64(in.Imm)
		return func(s *cstate) error { s.regs[d] = s.regs[a] + off; return nil }, false

	case ir.Load:
		d, a := reg(in.Dst), argR(0)
		in := in // fault provenance needs the instruction
		switch in.Size {
		case 1:
			return func(s *cstate) error {
				v, err := as.LoadU8(s.regs[a])
				if err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				s.regs[d] = uint64(v)
				return nil
			}, false
		case 2:
			return func(s *cstate) error {
				v, err := as.LoadU16(s.regs[a])
				if err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				s.regs[d] = uint64(v)
				return nil
			}, false
		case 4:
			return func(s *cstate) error {
				v, err := as.LoadU32(s.regs[a])
				if err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				s.regs[d] = uint64(v)
				return nil
			}, false
		default:
			return func(s *cstate) error {
				v, err := as.LoadU64(s.regs[a])
				if err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				s.regs[d] = v
				return nil
			}, false
		}

	case ir.Store:
		a, v := argR(0), argR(1)
		in := in
		switch in.Size {
		case 1:
			return func(s *cstate) error {
				if err := as.StoreU8(s.regs[a], byte(s.regs[v])); err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				return nil
			}, false
		case 2:
			return func(s *cstate) error {
				if err := as.StoreU16(s.regs[a], uint16(s.regs[v])); err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				return nil
			}, false
		case 4:
			return func(s *cstate) error {
				if err := as.StoreU32(s.regs[a], uint32(s.regs[v])); err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				return nil
			}, false
		default:
			return func(s *cstate) error {
				if err := as.StoreU64(s.regs[a], s.regs[v]); err != nil {
					return s.m.trapWithProvenance(f, in, err)
				}
				return nil
			}, false
		}

	case ir.PtrToInt, ir.IntToPtr:
		d, a := reg(in.Dst), argR(0)
		return func(s *cstate) error { s.regs[d] = s.regs[a]; return nil }, false

	case ir.Add:
		d, a, b := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error { s.regs[d] = s.regs[a] + s.regs[b]; return nil }, false
	case ir.Sub:
		d, a, b := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error { s.regs[d] = s.regs[a] - s.regs[b]; return nil }, false
	case ir.Mul:
		d, a, b := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error { s.regs[d] = s.regs[a] * s.regs[b]; return nil }, false
	case ir.ICmpLt:
		d, a, b := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error { s.regs[d] = b2u(s.regs[a] < s.regs[b]); return nil }, false
	case ir.ICmpEq:
		d, a, b := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error { s.regs[d] = b2u(s.regs[a] == s.regs[b]); return nil }, false

	case ir.Br:
		target := blockPC[in.Sym]
		return func(s *cstate) error { s.pc = target; return nil }, false

	case ir.CondBr:
		c := argR(0)
		then, els := blockPC[in.Sym], blockPC[in.SymElse]
		return func(s *cstate) error {
			if s.regs[c] != 0 {
				s.pc = then
			} else {
				s.pc = els
			}
			return nil
		}, false

	case ir.Ret:
		if len(in.Args) > 0 {
			a := argR(0)
			return func(s *cstate) error { s.ret, s.done = s.regs[a], true; return nil }, false
		}
		return func(s *cstate) error { s.done = true; return nil }, false

	case ir.Call, ir.CallExt:
		args := make([]int, len(in.Args))
		for i := range in.Args {
			args[i] = argR(i)
		}
		sym := in.Sym
		d := -1
		if in.Dst != "" {
			d = reg(in.Dst)
		}
		if in.Op == ir.CallExt {
			// The registry is resolved per call: RegisterExternal after
			// New (and after compilation) must keep working.
			return func(s *cstate) error {
				fn, ok := s.m.externals[sym]
				if !ok {
					return fmt.Errorf("interp: unknown external @%s", sym)
				}
				ret, err := fn(s.m, s.window(args))
				s.m.sp -= len(args)
				if err != nil {
					return err
				}
				if d >= 0 {
					s.regs[d] = ret
				}
				return nil
			}, false
		}
		var callee *compiledFunc // linked by the first execution that can
		return func(s *cstate) error {
			m := s.m
			if callee == nil {
				callee = m.link(sym, len(args))
			}
			vals := s.window(args)
			var ret uint64
			var err error
			if callee != nil {
				ret, err = m.runCompiled(callee, vals)
			} else {
				ret, err = m.Run(sym, vals...)
			}
			m.sp -= len(args)
			if err != nil {
				return err
			}
			if d >= 0 {
				s.regs[d] = ret
			}
			return nil
		}, false

	case ir.MemCpy, ir.MemSet:
		dst, src, n := argR(0), argR(1), argR(2)
		in := in
		return func(s *cstate) error {
			return s.m.memIntrinsic(in, s.regs[dst], s.regs[src], s.regs[n])
		}, false

	case ir.StrCpy:
		dst, src := argR(0), argR(1)
		if in.Wrapped {
			return func(s *cstate) error {
				return hooks.Strcpy(rt, s.regs[dst], s.regs[src])
			}, false
		}
		return func(s *cstate) error {
			str, err := as.CString(s.regs[src], 1<<20)
			if err != nil {
				return err
			}
			return as.StoreBytes(s.regs[dst], append([]byte(str), 0))
		}, false

	case ir.Flush:
		a := argR(0)
		pool, dev := m.env.Pool, m.env.Dev
		if pool == nil || dev == nil {
			return func(s *cstate) error { return nil }, true
		}
		return func(s *cstate) error {
			if off, err := pool.OffsetOf(rt.External(s.regs[a])); err == nil {
				dev.Flush(off, 1)
			}
			return nil
		}, true

	case ir.Fence:
		dev := m.env.Dev
		if dev == nil {
			return func(s *cstate) error { return nil }, true
		}
		return func(s *cstate) error { dev.Fence(); return nil }, true

	case ir.SppUpdateTag:
		d, a := reg(in.Dst), argR(0)
		if !m.isSPP {
			if len(in.Args) == 2 {
				argR(1) // keep register layout independent of variant
			}
			return func(s *cstate) error { s.regs[d] = s.regs[a]; return nil }, true
		}
		if len(in.Args) == 2 {
			b := argR(1)
			if in.KnownPM {
				return func(s *cstate) error {
					s.regs[d] = enc.UpdateTagDirect(s.regs[a], int64(s.regs[b]))
					return nil
				}, true
			}
			return func(s *cstate) error {
				s.regs[d] = enc.UpdateTag(s.regs[a], int64(s.regs[b]))
				return nil
			}, true
		}
		off := in.Imm
		if in.KnownPM {
			return func(s *cstate) error {
				s.regs[d] = enc.UpdateTagDirect(s.regs[a], off)
				return nil
			}, true
		}
		return func(s *cstate) error {
			s.regs[d] = enc.UpdateTag(s.regs[a], off)
			return nil
		}, true

	case ir.SppCheckBound:
		d, a, size := reg(in.Dst), argR(0), in.Size
		if in.KnownPM {
			return func(s *cstate) error {
				addr, err := rt.CheckPM(s.regs[a], size)
				if err != nil {
					return err
				}
				s.regs[d] = addr
				return nil
			}, true
		}
		return func(s *cstate) error {
			addr, err := rt.Check(s.regs[a], size)
			if err != nil {
				return err
			}
			s.regs[d] = addr
			return nil
		}, true

	case ir.SppCleanTag:
		d, a := reg(in.Dst), argR(0)
		if !m.isSPP {
			return func(s *cstate) error { s.regs[d] = s.regs[a]; return nil }, true
		}
		return func(s *cstate) error { s.regs[d] = enc.CleanTag(s.regs[a]); return nil }, true

	case ir.SppCleanExternal:
		d, a := reg(in.Dst), argR(0)
		return func(s *cstate) error { s.regs[d] = rt.External(s.regs[a]); return nil }, true

	case ir.SppMemIntrCheck:
		d, a, n := reg(in.Dst), argR(0), argR(1)
		return func(s *cstate) error {
			addr, err := rt.MemIntr(s.regs[a], s.regs[n])
			if err != nil {
				return err
			}
			s.regs[d] = addr
			return nil
		}, true
	}
	return nil, false
}
