// Package ir defines a miniature SSA-style intermediate representation
// standing in for LLVM IR in this reproduction. The SPP transformation
// and LTO passes (package transform) rewrite modules of this IR — the
// same decisions the paper's LLVM passes make: where to inject tag
// updates and bound checks, which pointers to classify as volatile,
// persistent or unknown, and which checks to merge or hoist.
package ir

import (
	"fmt"
	"strings"
)

// Op enumerates instruction opcodes.
type Op int

// Application opcodes.
const (
	Const      Op = iota + 1 // dst = Imm
	Malloc                   // dst = volatile alloc(arg0 bytes)
	PmemAlloc                // dst = oid handle of pmemobj_alloc(arg0 bytes)
	PmemDirect               // dst = pmemobj_direct(arg0 oid)
	Gep                      // dst = arg0 + arg1 (pointer arithmetic)
	Load                     // dst = *(arg0), Size bytes
	Store                    // *(arg0) = arg1, Size bytes
	PtrToInt                 // dst = integer value of arg0
	IntToPtr                 // dst = pointer from integer arg0
	Add                      // dst = arg0 + arg1
	Sub                      // dst = arg0 - arg1
	Mul                      // dst = arg0 * arg1
	ICmpLt                   // dst = arg0 < arg1 (1 or 0)
	ICmpEq                   // dst = arg0 == arg1
	Br                       // jump to Sym
	CondBr                   // if arg0 != 0 jump Sym else SymElse
	Ret                      // return arg0 (optional)
	Call                     // dst = call Sym(args...) — internal function
	CallExt                  // dst = call Sym(args...) — external library
	MemCpy                   // memcpy(arg0 dst, arg1 src, arg2 n)
	MemSet                   // memset(arg0 dst, arg1 byte, arg2 n)
	StrCpy                   // strcpy(arg0 dst, arg1 src)
	Flush                    // write-back the cacheline holding *(arg0) (CLWB)
	Fence                    // store fence ordering prior flushes (SFENCE)
)

// SPP hook opcodes, inserted by the transformation pass (Listing 1).
const (
	SppUpdateTag     Op = iota + 100 // dst = __spp_updatetag(arg0, Imm)
	SppCheckBound                    // dst = __spp_checkbound(arg0, Size)
	SppCleanTag                      // dst = __spp_cleantag(arg0)
	SppCleanExternal                 // dst = __spp_cleantag_external(arg0)
	SppMemIntrCheck                  // dst = __spp_memintr_check(arg0, arg1 bytes)
)

var opNames = map[Op]string{
	Const: "const", Malloc: "malloc", PmemAlloc: "pmalloc", PmemDirect: "direct",
	Gep: "gep", Load: "load", Store: "store", PtrToInt: "ptrtoint", IntToPtr: "inttoptr",
	Add: "add", Sub: "sub", Mul: "mul", ICmpLt: "icmp.lt", ICmpEq: "icmp.eq",
	Br: "br", CondBr: "condbr", Ret: "ret", Call: "call", CallExt: "callext",
	MemCpy: "memcpy", MemSet: "memset", StrCpy: "strcpy",
	Flush: "flush", Fence: "fence",
	SppUpdateTag: "spp.updatetag", SppCheckBound: "spp.checkbound",
	SppCleanTag: "spp.cleantag", SppCleanExternal: "spp.cleantag.ext",
	SppMemIntrCheck: "spp.memintr",
}

// operands is each opcode's operand count, {min, max}; call and callext
// take as many as the callee does.
var operands = map[Op][2]int{
	Const: {0, 0}, Malloc: {1, 1}, PmemAlloc: {1, 1}, PmemDirect: {1, 1}, Gep: {1, 2},
	Load: {1, 1}, Store: {2, 2}, PtrToInt: {1, 1}, IntToPtr: {1, 1},
	Add: {2, 2}, Sub: {2, 2}, Mul: {2, 2}, ICmpLt: {2, 2}, ICmpEq: {2, 2},
	Br: {0, 0}, CondBr: {1, 1}, Ret: {0, 1},
	MemCpy: {3, 3}, MemSet: {3, 3}, StrCpy: {2, 2}, Flush: {1, 1}, Fence: {0, 0},
	SppUpdateTag: {1, 2}, SppCheckBound: {1, 1}, SppCleanTag: {1, 1},
	SppCleanExternal: {1, 1}, SppMemIntrCheck: {2, 2},
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction.
type Instr struct {
	Op   Op
	Dst  string   // result value name ("" if none)
	Args []string // operand value names
	Imm  int64    // immediate (Const value, Gep constant offset, hook offset)
	// Size is the access width of Load/Store/SppCheckBound.
	Size uint64
	// Sym is the branch target or callee name; SymElse the fallthrough
	// of CondBr.
	Sym, SymElse string
	// KnownPM is set by the pointer-tracking pass when the operand is
	// statically persistent: the hook may skip the PM-bit test (the
	// _direct runtime variants of §V-B).
	KnownPM bool
	// Wrapped marks a memory intrinsic interposed by the LTO pass
	// (__wrap_memcpy and friends).
	Wrapped bool
	// SkipTagUpdate exempts a Gep from __spp_updatetag injection: its
	// base is already a masked pointer from a merged or hoisted check.
	SkipTagUpdate bool
	// SkipCheck exempts a Load/Store from __spp_checkbound injection
	// for the same reason.
	SkipCheck bool
}

// NoTagUpdate reports whether the instrumentation must not inject a
// tag update after this Gep.
func (in *Instr) NoTagUpdate() bool { return in.SkipTagUpdate }

// PreChecked reports whether the access was covered by a merged or
// hoisted bound check.
func (in *Instr) PreChecked() bool { return in.SkipCheck }

func (in *Instr) String() string {
	var b strings.Builder
	if in.Dst != "" {
		fmt.Fprintf(&b, "%s = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	if in.Op == Load || in.Op == Store || in.Op == SppCheckBound {
		fmt.Fprintf(&b, ".%d", in.Size)
	}
	writeArgs := func(args []string) {
		for i, a := range args {
			if i == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteString(", ")
			}
			b.WriteString(a)
		}
	}
	switch in.Op {
	case Const:
		fmt.Fprintf(&b, " %d", in.Imm)
	case SppUpdateTag:
		writeArgs(in.Args)
		if len(in.Args) == 1 {
			fmt.Fprintf(&b, ", %d", in.Imm)
		}
	case Gep:
		writeArgs(in.Args)
		if len(in.Args) == 1 {
			fmt.Fprintf(&b, ", %d", in.Imm)
		}
	case Br:
		fmt.Fprintf(&b, " %s", in.Sym)
	case CondBr:
		fmt.Fprintf(&b, " %s, %s, %s", in.Args[0], in.Sym, in.SymElse)
	case Call, CallExt:
		fmt.Fprintf(&b, " @%s", in.Sym)
		for _, a := range in.Args {
			fmt.Fprintf(&b, ", %s", a)
		}
	default:
		writeArgs(in.Args)
	}
	if in.KnownPM {
		b.WriteString(" !pm")
	}
	if in.Wrapped {
		b.WriteString(" !wrapped")
	}
	return b.String()
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	// LoopBound, when positive, annotates a self-looping block with
	// its trip count — the stand-in for LLVM scalar-evolution results
	// that the bound-check hoisting optimization consumes (§V-C).
	LoopBound int64
}

// Func is a function.
type Func struct {
	Name   string
	Params []string
	Blocks []*Block
	// External marks a declaration for an uninstrumented library
	// function (no body).
	External bool
}

// Block returns the named block, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Module is a compilation unit.
type Module struct {
	Funcs []*Func
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String renders the module in the textual syntax accepted by Parse.
func (m *Module) String() string {
	var b strings.Builder
	for _, f := range m.Funcs {
		if f.External {
			fmt.Fprintf(&b, "extern @%s\n", f.Name)
			continue
		}
		fmt.Fprintf(&b, "func @%s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
		for _, blk := range f.Blocks {
			if blk.LoopBound > 0 {
				fmt.Fprintf(&b, "%s: !loop.bound %d\n", blk.Name, blk.LoopBound)
			} else {
				fmt.Fprintf(&b, "%s:\n", blk.Name)
			}
			for _, in := range blk.Instrs {
				fmt.Fprintf(&b, "  %s\n", in)
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// Verify performs structural checks: unique function and block names,
// defined blocks for branch targets, terminators at block ends, operand
// counts and call arity, results named only where an opcode has one, and
// every value reference resolving to a parameter or an instruction
// result of the function.
func (m *Module) Verify() error {
	funcNames := make(map[string]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		if funcNames[f.Name] {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		funcNames[f.Name] = true
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: function %s has no blocks", f.Name)
		}
		defined := make(map[string]bool)
		for _, p := range f.Params {
			defined[p] = true
		}
		blockNames := make(map[string]bool, len(f.Blocks))
		for _, blk := range f.Blocks {
			if blockNames[blk.Name] {
				return fmt.Errorf("ir: %s: duplicate block label %q", f.Name, blk.Name)
			}
			blockNames[blk.Name] = true
			for _, in := range blk.Instrs {
				if in.Dst != "" {
					defined[in.Dst] = true
				}
			}
		}
		for _, blk := range f.Blocks {
			if len(blk.Instrs) == 0 {
				return fmt.Errorf("ir: %s/%s is empty", f.Name, blk.Name)
			}
			for i, in := range blk.Instrs {
				isTerm := in.Op == Br || in.Op == CondBr || in.Op == Ret
				if isTerm != (i == len(blk.Instrs)-1) {
					return fmt.Errorf("ir: %s/%s: terminator misplaced at %d (%s)", f.Name, blk.Name, i, in)
				}
				switch in.Op {
				case Store, Br, CondBr, Ret, MemCpy, MemSet, StrCpy, Flush, Fence:
					if in.Dst != "" {
						return fmt.Errorf("ir: %s/%s: %s produces no value to name %s", f.Name, blk.Name, in.Op, in.Dst)
					}
				}
				if n, ok := operands[in.Op]; ok && (len(in.Args) < n[0] || len(in.Args) > n[1]) {
					return fmt.Errorf("ir: %s/%s: %s wants %d to %d operands, got %d", f.Name, blk.Name, in.Op, n[0], n[1], len(in.Args))
				}
				for _, a := range in.Args {
					if !defined[a] {
						return fmt.Errorf("ir: %s/%s: use of undefined value %q in %q", f.Name, blk.Name, a, in)
					}
				}
				switch in.Op {
				case Br:
					if f.Block(in.Sym) == nil {
						return fmt.Errorf("ir: %s: branch to unknown block %q", f.Name, in.Sym)
					}
				case CondBr:
					if f.Block(in.Sym) == nil || f.Block(in.SymElse) == nil {
						return fmt.Errorf("ir: %s: condbr to unknown block", f.Name)
					}
				case Call:
					callee := m.Func(in.Sym)
					if callee == nil {
						return fmt.Errorf("ir: %s: call to unknown function %q", f.Name, in.Sym)
					}
					if callee.External {
						return fmt.Errorf("ir: %s: internal call to external %q (use callext)", f.Name, in.Sym)
					}
					if len(in.Args) != len(callee.Params) {
						return fmt.Errorf("ir: %s: call @%s with %d args, want %d", f.Name, in.Sym, len(in.Args), len(callee.Params))
					}
				case Load, Store:
					switch in.Size {
					case 1, 2, 4, 8:
					default:
						return fmt.Errorf("ir: %s: bad access size %d", f.Name, in.Size)
					}
				case SppCheckBound:
					if in.Size == 0 {
						return fmt.Errorf("ir: %s: zero-size bound check", f.Name)
					}
				}
			}
		}
	}
	return nil
}

// Clone deep-copies the module so a pass can rewrite it without
// mutating the input.
func (m *Module) Clone() *Module {
	out := &Module{Funcs: make([]*Func, len(m.Funcs))}
	for i, f := range m.Funcs {
		nf := &Func{Name: f.Name, Params: append([]string(nil), f.Params...), External: f.External}
		for _, blk := range f.Blocks {
			nb := &Block{Name: blk.Name, LoopBound: blk.LoopBound}
			for _, in := range blk.Instrs {
				cp := *in
				cp.Args = append([]string(nil), in.Args...)
				nb.Instrs = append(nb.Instrs, &cp)
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
		out.Funcs[i] = nf
	}
	return out
}
