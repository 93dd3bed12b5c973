package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hooks"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/variant"
)

// Linked calls and the register stack (compile.go) against the
// reference interpreter: every call path must be observably identical
// in both executors — value, error text, trap verdict, audit record and
// steps consumed — and must leave the machine balanced.

// raceEnabled is set by race_test.go; the allocation guards skip under
// the race detector, which instruments allocations.
var raceEnabled bool

// outcome is everything a run lets an observer see.
type outcome struct {
	val     uint64
	err     string
	trapped bool
	steps   int
	audit   string // detection site, geometry and provenance of the trap record
}

// auditKey renders the fields of a violation record that two fresh
// environments share (not its sequence number, time or pool identity).
func auditKey(vs []telemetry.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "[%s/%s size %d off %#x obj %#x+%d tag %#x via %s]", v.Mechanism, v.Kind,
			v.AccessSize, v.Offset, v.ObjectOff, v.ObjectSize, v.Tag, strings.Join(v.Provenance, " <- "))
	}
	return b.String()
}

// observe runs fn once on a fresh environment in one mode. prep may
// register externals or bend the machine; the machine must come back
// balanced whatever the run did.
func observe(t *testing.T, mod *ir.Module, kind variant.Kind, noCompile bool,
	prep func(*Machine), fn string, args ...uint64) (outcome, *Machine) {
	t.Helper()
	mach := New(mod, env(t, kind))
	mach.NoCompile = noCompile
	if prep != nil {
		prep(mach)
	}
	mark := telemetry.Audit.Total()
	val, err := mach.Run(fn, args...)
	o := outcome{val: val, trapped: hooks.IsSafetyTrap(err), steps: mach.steps,
		audit: auditKey(telemetry.Audit.RecordsSince(mark))}
	if err != nil {
		o.err = err.Error()
	}
	if mach.sp != 0 || mach.depth != 0 || mach.cur.regs != nil {
		t.Fatalf("noCompile=%v: machine left unbalanced: sp %d depth %d cur %+v", noCompile, mach.sp, mach.depth, mach.cur)
	}
	return o, mach
}

// agree runs fn in both executors under pmdk and spp and requires
// identical outcomes; it returns the compiled spp outcome and machine.
func agree(t *testing.T, src string, prep func(*Machine), fn string, args ...uint64) (outcome, *Machine) {
	t.Helper()
	mod := parse(t, src)
	var got outcome
	var mach *Machine
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP} {
		want, _ := observe(t, mod, kind, true, prep, fn, args...)
		got, mach = observe(t, mod, kind, false, prep, fn, args...)
		if got != want {
			t.Fatalf("%s: compiled %+v\ninterpreted %+v", kind, got, want)
		}
	}
	return got, mach
}

// callProgram has a compilable leaf, a callee that only the interpreter
// may run (the use of %x in join is not dominated: arriving from right
// it is undefined) and callers of each kind.
const callProgram = `
func @leaf(%a) {
entry:
  %one = const 1
  %b = add %a, %one
  ret %b
}
func @undom(%a) {
entry:
  %z = const 0
  %c = icmp.eq %a, %z
  condbr %c, left, right
left:
  %x = const 5
  br join
right:
  br join
join:
  %l = call @leaf, %x
  %r = add %l, %a
  ret %r
}
func @mid(%a) {
entry:
  %u = call @undom, %a
  %v = call @leaf, %u
  %w = add %u, %v
  ret %w
}
func @top(%a) {
entry:
  %m = call @mid, %a
  %n = call @leaf, %a
  %s = add %m, %n
  ret %s
}
`

func TestCallPathsAgree(t *testing.T) {
	// compiled -> compiled.
	if o, m := agree(t, callProgram, nil, "leaf", 41); o.val != 42 || o.err != "" {
		t.Errorf("leaf(41) = %+v", o)
	} else if st := m.CompileStats(); st.Funcs != 1 || st.Fallbacks != 0 {
		t.Errorf("leaf alone: %+v", st)
	}
	// fallback -> compiled: undom runs interpreted and calls leaf.
	if o, _ := agree(t, callProgram, nil, "undom", 0); o.val != 6 || o.err != "" {
		t.Errorf("undom(0) = %+v", o)
	}
	// Three deep, compiled -> compiled -> fallback -> compiled.
	o, m := agree(t, callProgram, nil, "top", 0)
	if o.val != 6+7+1 || o.err != "" {
		t.Errorf("top(0) = %+v", o)
	}
	if st := m.CompileStats(); st.Funcs != 3 || st.Fallbacks != 1 {
		t.Errorf("top: %+v, want leaf/mid/top compiled and undom declined", st)
	}
	// The interpreted callee's fault crosses two compiled frames intact.
	if o, _ := agree(t, callProgram, nil, "top", 3); o.err != "interp: undom: undefined value %x" {
		t.Errorf("top(3) = %+v", o)
	}
}

// recursive builds @down(n) = n + down(n-1) with pad extra registers
// per frame.
func recursive(pad int) string {
	var b strings.Builder
	b.WriteString("func @down(%n) {\nentry:\n")
	for i := 0; i < pad; i++ {
		fmt.Fprintf(&b, "  %%pad%d = const %d\n", i, i)
	}
	b.WriteString(`  %z = const 0
  %c = icmp.eq %n, %z
  condbr %c, base, rec
base:
  ret %z
rec:
  %one = const 1
  %m = sub %n, %one
  %r = call @down, %m
  %s = add %r, %n
  ret %s
}
`)
	return b.String()
}

// TestRecursionGrowsStack: the register stack reallocates many times
// while caller frames are live — every caller must still find its own
// %n afterwards — and an idle machine keeps a small stack only.
func TestRecursionGrowsStack(t *testing.T) {
	o, m := agree(t, recursive(0), nil, "down", 2000)
	if o.val != 2000*2001/2 || o.err != "" {
		t.Fatalf("down(2000) = %+v", o)
	}
	if len(m.stack) < 2000*5 || len(m.stack) > parkedRegs {
		t.Errorf("stack after a 2000-deep run: %d words", len(m.stack))
	}
	// 9000 frames of 30+ registers outgrow what a parked machine keeps.
	o, m = agree(t, recursive(30), nil, "down", 9000)
	if o.val != 9000*9001/2 || o.err != "" {
		t.Fatalf("down(9000) = %+v", o)
	}
	if m.stack != nil {
		t.Errorf("idle machine kept a %d-word stack", len(m.stack))
	}
	if v, err := m.Run("down", 10); err != nil || v != 55 {
		t.Errorf("run after the stack was dropped = %d, %v", v, err)
	}
}

// TestCallDepthBound: both executors end a runaway recursion with the
// same error at the same depth, counted across compiled/fallback
// boundaries, and stay usable.
func TestCallDepthBound(t *testing.T) {
	o, m := agree(t, recursive(0), nil, "down", maxCallDepth)
	if o.err != "interp: call depth exceeded in @down" {
		t.Fatalf("down(maxCallDepth) = %+v", o)
	}
	if v, err := m.Run("down", maxCallDepth-1); err != nil || v != (maxCallDepth-1)*maxCallDepth/2 {
		t.Errorf("down(maxCallDepth-1) = %d, %v", v, err)
	}
	// top -> mid -> undom -> top ...: every third frame is interpreted.
	o, m = agree(t, strings.Replace(callProgram, "%r = add %l, %a", "%r = call @top, %z", 1), nil, "top", 0)
	if o.err != "interp: call depth exceeded in @mid" { // activation 10001 of top, mid, undom, top, ...
		t.Errorf("mutual recursion = %+v", o)
	}
	if st := m.CompileStats(); st.Fallbacks != 1 {
		t.Errorf("mutual recursion did not cross executors: %+v", st)
	}
}

// TestStepBudgetInsideCallee: the budget is the machine's, whichever
// frame exhausts it; the frames unwind and the machine runs again.
func TestStepBudgetInsideCallee(t *testing.T) {
	const src = `
func @spin(%a) {
entry:
  br loop
loop:
  br loop
}
func @main(%a) {
entry:
  %r = call @spin, %a
  ret %r
}
func @ok(%a) {
entry:
  ret %a
}
`
	prep := func(m *Machine) { m.MaxSteps = 500 }
	o, m := agree(t, src, prep, "main", 1)
	if o.err != "interp: step budget exceeded in spin" || o.steps != 501 {
		t.Fatalf("main = %+v", o)
	}
	m.MaxSteps += 10
	if v, err := m.Run("ok", 7); err != nil || v != 7 {
		t.Errorf("run after an exhausted budget = %d, %v", v, err)
	}
}

// TestCalleeTraps: a raw out-of-mapping store and a failing bound check
// inside a callee reach the caller's caller as the interpreter's trap —
// same verdict, same audit record, same provenance chain — and the
// machine is reusable.
func TestCalleeTraps(t *testing.T) {
	const src = `
func @poke(%p) {
entry:
  %q = gep %p, 1099511627776
  %v = const 7
  store.8 %q, %v
  ret %v
}
func @checked(%p) {
entry:
  %t = spp.updatetag %p, 64
  %a = spp.checkbound.8 %t
  %v = const 7
  store.8 %a, %v
  ret %v
}
func @raw() {
entry:
  %s = const 64
  %oid = pmalloc %s
  %p = direct %oid
  %r = call @poke, %p
  ret %r
}
func @hooked() {
entry:
  %s = const 64
  %oid = pmalloc %s
  %p = direct %oid
  %r = call @checked, %p
  ret %r
}
func @fine() {
entry:
  %s = const 3
  ret %s
}
`
	o, m := agree(t, src, nil, "raw")
	if !o.trapped || !strings.Contains(o.audit, "access-fault") || !strings.Contains(o.audit, "%q = gep %p") {
		t.Errorf("raw store: %+v", o)
	}
	if v, err := m.Run("fine"); err != nil || v != 3 {
		t.Errorf("run after a trap = %d, %v", v, err)
	}
	if o, _ := agree(t, src, nil, "hooked"); !o.trapped {
		t.Errorf("bound check under spp: %+v", o)
	}
}

// TestExternalBorrowsWindow: an external's argument slice is a window
// of the register stack. Re-entering Run must carve above it, and an
// external that scribbles on or appends to it must not reach any
// frame.
func TestExternalBorrowsWindow(t *testing.T) {
	const src = `
extern @ext_reenter
extern @ext_scribble
func @leaf(%a) {
entry:
  %one = const 1
  %b = add %a, %one
  ret %b
}
func @main(%a, %b) {
entry:
  %x = callext @ext_reenter, %a, %b
  %y = callext @ext_scribble, %a, %b
  %s = add %x, %y
  %s = add %s, %a
  %s = add %s, %b
  ret %s
}
`
	prep := func(m *Machine) {
		m.RegisterExternal("ext_reenter", func(m *Machine, args []uint64) (uint64, error) {
			v, err := m.Run("leaf", args[0])
			if err != nil {
				return 0, err
			}
			// The callee's frame must not have landed on the window.
			return v*1000 + args[0]*10 + args[1], nil
		})
		m.RegisterExternal("ext_scribble", func(m *Machine, args []uint64) (uint64, error) {
			args[0], args[1] = 999, 999
			args = append(args, 1, 2, 3)
			return uint64(len(args)), nil
		})
	}
	o, _ := agree(t, src, prep, "main", 4, 2)
	if want := uint64(5*1000+4*10+2) + 5 + 4 + 2; o.val != want || o.err != "" {
		t.Errorf("main(4, 2) = %+v, want %d", o, want)
	}
}

// TestMalformedCallees: call sites a verified module cannot contain
// never link; they keep Machine.Run's error text.
func TestMalformedCallees(t *testing.T) {
	const src = `
extern @ext_identity
func @leaf(%a) {
entry:
  ret %a
}
func @main(%a) {
entry:
  %r = call @leaf, %a
  ret %r
}
`
	for _, tc := range []struct {
		bend func(call *ir.Instr)
		want string
	}{
		{func(c *ir.Instr) { c.Sym = "nope" }, `interp: no function "nope"`},
		{func(c *ir.Instr) { c.Sym = "ext_identity" }, `interp: "ext_identity" is external`},
		{func(c *ir.Instr) { c.Args = append(c.Args, c.Args[0]) }, "interp: leaf wants 1 args, got 2"},
	} {
		for _, noCompile := range []bool{true, false} {
			mod := parse(t, src)
			tc.bend(mod.Func("main").Blocks[0].Instrs[0])
			o, m := observe(t, mod, variant.PMDK, noCompile, nil, "main", 1)
			if o.err != tc.want {
				t.Errorf("noCompile=%v: %q, want %q", noCompile, o.err, tc.want)
			}
			// The site retries: the same machine reports it again.
			if _, err := m.Run("main", 1); err == nil || err.Error() != tc.want {
				t.Errorf("noCompile=%v second run: %v", noCompile, err)
			}
		}
	}
}

// TestLateNoCompile: a site links only to a compiled callee. Pinning
// the interpreter before the callee first runs keeps that call on
// Machine.Run, as NoCompile documents.
func TestLateNoCompile(t *testing.T) {
	mod := parse(t, callProgram)
	mach := New(mod, env(t, variant.PMDK))
	mach.compiledFor(mod.Func("mid"))
	mach.NoCompile = true
	if v, err := mach.Run("mid", 0); err != nil || v != 6+7 {
		t.Fatalf("mid(0) = %d, %v", v, err)
	}
	if st := mach.CompileStats(); st.Funcs != 1 {
		t.Errorf("NoCompile set after compiling @mid still compiled its callees: %+v", st)
	}
}

// Allocation guards.

const loopCallProgram = `
extern @ext_identity
func @leaf(%a) {
entry:
  %one = const 1
  %b = add %a, %one
  ret %b
}
func @calls(%n) {
entry:
  %i = const 0
  br loop
loop:
  %i = call @leaf, %i
  %c = icmp.lt %i, %n
  condbr %c, loop, done
done:
  ret %i
}
func @callexts(%n) {
entry:
  %i = const 0
  %one = const 1
  br loop
loop:
  %j = callext @ext_identity, %i
  %i = add %j, %one
  %c = icmp.lt %i, %n
  condbr %c, loop, done
done:
  ret %i
}
`

// kernelParamShape is benchmarks/corpus/kernel-param.ir in miniature:
// per run one persistent object and two volatile slots, then iters
// calls of a kernel that loops over the object it was handed.
const kernelParamShape = `
func @kernel(%p) {
entry:
  %eight = const 8
  %islot = malloc %eight
  %zero = const 0
  store.8 %islot, %zero
  br loop
loop:
  %i = load.8 %islot
  %off = mul %i, %eight
  %q = gep %p, %off
  store.8 %q, %i
  %one = const 1
  %i2 = add %i, %one
  store.8 %islot, %i2
  %n = const 16
  %c = icmp.lt %i2, %n
  condbr %c, loop, done
done:
  %x = load.8 %p
  ret %x
}
func @main(%iters) {
entry:
  %size = const 128
  %oid = pmalloc %size
  %p = direct %oid
  %eight = const 8
  %oslot = malloc %eight
  %zero = const 0
  store.8 %oslot, %zero
  br outer
outer:
  %o = load.8 %oslot
  %more = icmp.lt %o, %iters
  condbr %more, body, end
body:
  %x = call @kernel, %p
  %one = const 1
  %onext = add %o, %one
  store.8 %oslot, %onext
  br outer
end:
  ret %o
}
`

func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mach := New(parse(t, loopCallProgram), env(t, variant.SPP))
	mach.MaxSteps = 1 << 40
	for _, fn := range []string{"calls", "callexts"} {
		if v, err := mach.Run(fn, 1000); err != nil || v != 1000 { // link, grow the stack
			t.Fatalf("%s(1000) = %d, %v", fn, v, err)
		}
		if n := testing.AllocsPerRun(20, func() { mach.Run(fn, 1000) }); n != 0 {
			t.Errorf("%s: %v allocations per 1000 calls, want 0", fn, n)
		}
	}

	mach = New(parse(t, kernelParamShape), env(t, variant.PMDK)) // uninstrumented: raw accesses
	mach.MaxSteps = 1 << 40
	for _, iters := range []uint64{1, 10, 300} {
		mach.Run("main", iters)
		n := testing.AllocsPerRun(10, func() {
			if _, err := mach.Run("main", iters); err != nil {
				t.Fatal(err)
			}
		})
		if n > 2 {
			t.Errorf("main(%d): %v allocations per run, want <= 2 however many calls it makes", iters, n)
		}
	}
}
