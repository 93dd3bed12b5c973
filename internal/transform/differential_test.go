package transform

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hooks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/variant"
)

// optLevels are the optimization rungs of the pass, from bare
// instrumentation to the full analysis pipeline. Differential testing
// asserts that climbing the ladder never changes program semantics —
// neither results of in-bounds programs nor fault verdicts of
// out-of-bounds ones.
var optLevels = []struct {
	name string
	opts Options
}{
	{"no-opt", Options{DisablePreemption: true, DisableHoisting: true, DisableValueRange: true,
		DisableLoopOpt: true, DisableFlushElim: true}},
	{"preempt", Options{DisableHoisting: true, DisableValueRange: true,
		DisableLoopOpt: true, DisableFlushElim: true}},
	{"preempt+hoist", Options{DisableValueRange: true, DisableLoopOpt: true, DisableFlushElim: true}},
	{"range", Options{DisableLoopOpt: true, DisableFlushElim: true}},
	{"range+loop", Options{DisableFlushElim: true}},
	{"full-analysis", Options{}},
}

// Fault kinds genProgram can inject.
const (
	faultNone      = ""
	faultOverflow  = "overflow"  // gep one object past the end, store
	faultStraddle  = "straddle"  // in-bounds pointer, access crosses the end
	faultUnderflow = "underflow" // gep before the object start, store
)

// genProgram builds a random straight-line program: it allocates a few
// PM and volatile objects, performs random in-range geps, loads,
// stores, integer arithmetic, ptr/int round trips, memory intrinsics
// and external calls, and returns a checksum of everything it loaded.
// With a non-empty fault kind it additionally injects one
// out-of-bounds store on a persistent object.
func genProgram(rng *rand.Rand, fault string) string {
	var b strings.Builder
	b.WriteString("extern @ext_identity\nextern @ext_load8\nfunc @main() {\nentry:\n")
	fmt.Fprintf(&b, "  %%objsize = const %d\n", 256)
	fmt.Fprintf(&b, "  %%zero = const 0\n")

	nPM := rng.Intn(3) + 1
	nVol := rng.Intn(2) + 1
	var ptrs []string // pointer values with 256-byte valid range
	for i := 0; i < nPM; i++ {
		fmt.Fprintf(&b, "  %%oid%d = pmalloc %%objsize\n", i)
		fmt.Fprintf(&b, "  %%pm%d = direct %%oid%d\n", i, i)
		ptrs = append(ptrs, fmt.Sprintf("%%pm%d", i))
	}
	for i := 0; i < nVol; i++ {
		fmt.Fprintf(&b, "  %%vol%d = malloc %%objsize\n", i)
		ptrs = append(ptrs, fmt.Sprintf("%%vol%d", i))
	}
	fmt.Fprintf(&b, "  %%acc0 = add %%zero, %%zero\n")
	acc := "%acc0"

	vals := []string{"%zero", "%objsize"}
	tmp := 0
	fresh := func(prefix string) string {
		tmp++
		return fmt.Sprintf("%%%s%d", prefix, tmp)
	}
	steps := rng.Intn(25) + 10
	for s := 0; s < steps; s++ {
		base := ptrs[rng.Intn(len(ptrs))]
		switch rng.Intn(8) {
		case 0: // gep + store
			off := rng.Intn(31) * 8
			q := fresh("q")
			v := vals[rng.Intn(len(vals))]
			fmt.Fprintf(&b, "  %s = gep %s, %d\n", q, base, off)
			fmt.Fprintf(&b, "  store.8 %s, %s\n", q, v)
		case 1: // gep + load into the accumulator
			off := rng.Intn(31) * 8
			q := fresh("q")
			x := fresh("x")
			a2 := fresh("acc")
			fmt.Fprintf(&b, "  %s = gep %s, %d\n", q, base, off)
			fmt.Fprintf(&b, "  %s = load.8 %s\n", x, q)
			fmt.Fprintf(&b, "  %s = add %s, %s\n", a2, acc, x)
			acc = a2
			vals = append(vals, x)
		case 2: // integer arithmetic
			x := fresh("i")
			a, c := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			op := []string{"add", "sub", "mul"}[rng.Intn(3)]
			fmt.Fprintf(&b, "  %s = %s %s, %s\n", x, op, a, c)
			vals = append(vals, x)
		case 3: // ptr -> int -> comparison (cleaned values compare equal)
			i1, i2, eq := fresh("i"), fresh("i"), fresh("c")
			a2 := fresh("acc")
			fmt.Fprintf(&b, "  %s = ptrtoint %s\n", i1, base)
			fmt.Fprintf(&b, "  %s = ptrtoint %s\n", i2, base)
			fmt.Fprintf(&b, "  %s = icmp.eq %s, %s\n", eq, i1, i2)
			fmt.Fprintf(&b, "  %s = add %s, %s\n", a2, acc, eq)
			acc = a2
		case 4: // in-bounds memcpy between two objects
			dst := ptrs[rng.Intn(len(ptrs))]
			n := fresh("n")
			fmt.Fprintf(&b, "  %s = const %d\n", n, rng.Intn(16)*8+8)
			fmt.Fprintf(&b, "  memcpy %s, %s, %s\n", dst, base, n)
		case 5: // memset a prefix
			n, c := fresh("n"), fresh("cv")
			fmt.Fprintf(&b, "  %s = const %d\n", n, rng.Intn(32)+1)
			fmt.Fprintf(&b, "  %s = const %d\n", c, rng.Intn(256))
			fmt.Fprintf(&b, "  memset %s, %s, %s\n", base, c, n)
		case 6: // external call with a masked pointer
			r := fresh("r")
			a2 := fresh("acc")
			fmt.Fprintf(&b, "  %s = callext @ext_load8, %s\n", r, base)
			fmt.Fprintf(&b, "  %s = add %s, %s\n", a2, acc, r)
			acc = a2
		case 7: // chained gep back and forth
			q1, q2 := fresh("q"), fresh("q")
			off := rng.Intn(28)*8 + 16
			fmt.Fprintf(&b, "  %s = gep %s, %d\n", q1, base, off)
			fmt.Fprintf(&b, "  %s = gep %s, %d\n", q2, q1, -8)
			fmt.Fprintf(&b, "  store.8 %s, %s\n", q2, vals[rng.Intn(len(vals))])
		}
	}
	if fault != faultNone {
		pm := fmt.Sprintf("%%pm%d", rng.Intn(nPM))
		q := fresh("oob")
		switch fault {
		case faultOverflow:
			fmt.Fprintf(&b, "  %s = gep %s, %d\n", q, pm, 256+rng.Intn(4)*8)
		case faultStraddle:
			// In-bounds pointer whose 8-byte access crosses the end.
			fmt.Fprintf(&b, "  %s = gep %s, 249\n", q, pm)
		case faultUnderflow:
			fmt.Fprintf(&b, "  %s = gep %s, -8\n", q, pm)
		}
		fmt.Fprintf(&b, "  store.8 %s, %%zero\n", q)
	}
	fmt.Fprintf(&b, "  ret %s\n}\n", acc)
	return b.String()
}

var diffVariants = []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM, variant.SPPPacked}

// TestDifferentialRandomPrograms: for random in-bounds programs, the
// instrumented binary at every optimization level and under every
// protection variant must compute exactly what the uninstrumented
// binary computes natively — the compiler pass must never change
// program semantics.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	passConfigs := []struct {
		name string
		opts Options
	}{
		{"tracking-off", Options{DisablePointerTracking: true}},
		{"restore-intptr", Options{RestoreIntPtr: true}},
	}
	for _, lv := range optLevels {
		passConfigs = append(passConfigs, struct {
			name string
			opts Options
		}{lv.name, lv.opts})
	}
	for trial := 0; trial < 40; trial++ {
		src := genProgram(rng, faultNone)
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated program invalid: %v\n%s", trial, err, src)
		}
		// Ground truth: uninstrumented on native.
		envN := newEnv(t, variant.PMDK)
		want, err := interp.New(mod, envN).Run("main")
		if err != nil {
			t.Fatalf("trial %d: native run failed: %v\n%s", trial, err, src)
		}
		for _, cfg := range passConfigs {
			instrumented, _, err := Apply(mod, cfg.opts)
			if err != nil {
				t.Fatalf("trial %d cfg %s: %v", trial, cfg.name, err)
			}
			for _, kind := range diffVariants {
				env := newEnv(t, kind)
				got, err := interp.New(instrumented, env).Run("main")
				if err != nil {
					t.Fatalf("trial %d cfg %s %s: run failed: %v\n%s", trial, cfg.name, kind, err, src)
				}
				if got != want {
					t.Fatalf("trial %d cfg %s %s: got %d want %d\n%s", trial, cfg.name, kind, got, want, src)
				}
			}
		}
	}
}

// verdict is the observable outcome of one run: whether it errored,
// whether the error was a detected safety trap, and the result value
// when it completed.
type verdict struct {
	errored bool
	trapped bool
	value   uint64
}

// TestDifferentialFaultVerdicts: for random out-of-bounds programs,
// each protection variant must reach the same verdict at every
// optimization level. In particular value-range elision must never
// remove the check that catches the injected fault, and check
// preemption must never turn a trapping program into a silent one (or
// vice versa).
func TestDifferentialFaultVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1312))
	faults := []string{faultOverflow, faultStraddle, faultUnderflow}
	for trial := 0; trial < 24; trial++ {
		fault := faults[trial%len(faults)]
		src := genProgram(rng, fault)
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated program invalid: %v\n%s", trial, err, src)
		}
		for _, kind := range diffVariants {
			var base verdict
			for li, lv := range optLevels {
				instrumented, _, err := Apply(mod, lv.opts)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, lv.name, err)
				}
				env := newEnv(t, kind)
				got, runErr := interp.New(instrumented, env).Run("main")
				v := verdict{errored: runErr != nil, trapped: hooks.IsSafetyTrap(runErr)}
				if runErr == nil {
					v.value = got
				}
				if li == 0 {
					base = v
					continue
				}
				if v != base {
					t.Fatalf("trial %d (%s) %s: verdict diverged at %s: %+v vs %s %+v\n%s",
						trial, fault, kind, lv.name, v, optLevels[0].name, base, src)
				}
			}
			// The tag-carrying variants must actually detect overflow
			// and straddling accesses (underflow detection depends on
			// the encoding, so only cross-level agreement is required).
			if (kind == variant.SPP || kind == variant.SPPPacked) &&
				(fault == faultOverflow || fault == faultStraddle) && !base.trapped {
				t.Errorf("trial %d (%s) %s: out-of-bounds store not trapped\n%s",
					trial, fault, kind, src)
			}
		}
	}
}

// TestValueRangeElisionRate: over the random corpus, the loop fixture
// and the examples/compiler-pass IR fixtures, the value-range client
// must elide at least 20% of the bound checks that survive preemption
// and hoisting.
func TestValueRangeElisionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var surviving, withElision int
	count := func(src string) {
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("invalid program: %v\n%s", err, src)
		}
		_, base, err := Apply(mod, Options{DisableValueRange: true})
		if err != nil {
			t.Fatal(err)
		}
		_, full, err := Apply(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		surviving += base.CheckBounds
		withElision += full.CheckBounds
	}
	for trial := 0; trial < 40; trial++ {
		count(genProgram(rng, faultNone))
	}
	count(loopProgram)
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "examples", "compiler-pass", "*.ir"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no compiler-pass fixtures found: %v", err)
	}
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		count(string(b))
	}
	if surviving == 0 {
		t.Fatal("corpus produced no bound checks")
	}
	elided := surviving - withElision
	rate := float64(elided) / float64(surviving)
	t.Logf("bound checks surviving preemption+hoisting: %d, after elision: %d (%.0f%% elided)",
		surviving, withElision, rate*100)
	if rate < 0.20 {
		t.Errorf("elision rate %.1f%% below the 20%% acceptance bar", rate*100)
	}
}

// Loop fault kinds genLoopProgram can inject.
const (
	faultLoopOverflow = "loop-overflow"  // induction variable runs past the object
	faultLoopInvar    = "loop-invariant" // loop-invariant access past the object
)

// genLoopProgram builds a random loop-heavy program: @main allocates a
// persistent object and iterates a strided store loop over it with a
// slot induction variable (statically known size: the range+loop tier
// elides everything), and @kernel receives the pointer as a parameter
// (size unknown: only the loop tier's widened and invariant preheader
// checks apply). Fault kinds push the induction range or an invariant
// access past the object.
func genLoopProgram(rng *rand.Rand, fault string) string {
	const objSize = 256
	trip := rng.Intn(24) + 8 // 8..31 iterations, stride 8: in bounds
	if fault == faultLoopOverflow {
		trip = objSize/8 + 1 + rng.Intn(4) // runs one or more strides past
	}
	invarOff := rng.Intn(16) * 8
	if fault == faultLoopInvar {
		invarOff = objSize + rng.Intn(4)*8
	}
	nInvar := rng.Intn(2) + 1 // invariant loads in the kernel loop

	var b strings.Builder
	fmt.Fprintf(&b, "func @kernel(%%p) {\nentry:\n")
	fmt.Fprintf(&b, "  %%eight = const 8\n  %%zero = const 0\n  %%one = const 1\n")
	fmt.Fprintf(&b, "  %%slot = malloc %%eight\n  store.8 %%slot, %%zero\n")
	fmt.Fprintf(&b, "  %%acc = malloc %%eight\n  store.8 %%acc, %%zero\n")
	fmt.Fprintf(&b, "  br loop\nloop:\n")
	fmt.Fprintf(&b, "  %%i = load.8 %%slot\n")
	fmt.Fprintf(&b, "  %%off = mul %%i, %%eight\n")
	fmt.Fprintf(&b, "  %%q = gep %%p, %%off\n")
	fmt.Fprintf(&b, "  store.8 %%q, %%i\n")
	for k := 0; k < nInvar; k++ {
		off := rng.Intn(8) * 8
		if k == 0 {
			off = invarOff
		}
		fmt.Fprintf(&b, "  %%f%d = gep %%p, %d\n  %%x%d = load.8 %%f%d\n", k, off, k, k)
		fmt.Fprintf(&b, "  %%a%d = load.8 %%acc\n  %%s%d = add %%a%d, %%x%d\n  store.8 %%acc, %%s%d\n",
			k, k, k, k, k)
	}
	fmt.Fprintf(&b, "  %%i2 = add %%i, %%one\n")
	fmt.Fprintf(&b, "  store.8 %%slot, %%i2\n")
	fmt.Fprintf(&b, "  %%lim = const %d\n", trip)
	fmt.Fprintf(&b, "  %%c = icmp.lt %%i2, %%lim\n")
	fmt.Fprintf(&b, "  condbr %%c, loop, done\ndone:\n")
	fmt.Fprintf(&b, "  %%r = load.8 %%acc\n  ret %%r\n}\n")

	mainTrip := rng.Intn(24) + 8
	fmt.Fprintf(&b, "func @main() {\nentry:\n")
	fmt.Fprintf(&b, "  %%size = const %d\n  %%oid = pmalloc %%size\n  %%pm = direct %%oid\n", objSize)
	fmt.Fprintf(&b, "  %%eight = const 8\n  %%zero = const 0\n  %%one = const 1\n")
	fmt.Fprintf(&b, "  %%slot = malloc %%eight\n  store.8 %%slot, %%zero\n  br fill\nfill:\n")
	fmt.Fprintf(&b, "  %%i = load.8 %%slot\n  %%off = mul %%i, %%eight\n")
	fmt.Fprintf(&b, "  %%q = gep %%pm, %%off\n  store.8 %%q, %%i\n")
	fmt.Fprintf(&b, "  %%i2 = add %%i, %%one\n  store.8 %%slot, %%i2\n  %%lim = const %d\n", mainTrip)
	fmt.Fprintf(&b, "  %%c = icmp.lt %%i2, %%lim\n  condbr %%c, fill, run\nrun:\n")
	fmt.Fprintf(&b, "  %%r = call @kernel, %%pm\n  ret %%r\n}\n")
	return b.String()
}

// TestLoopFaultVerdicts: the loop tier's hoisted and widened preheader
// checks must reach the same verdict as the per-access checks they
// replace, for in-bounds loops and for loops whose induction range or
// invariant access runs past the object. A widened check may trap at
// the preheader where the unoptimized program traps mid-loop, but
// trap/no-trap and computed results must agree.
func TestLoopFaultVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	faults := []string{faultNone, faultLoopOverflow, faultLoopInvar}
	for trial := 0; trial < 18; trial++ {
		fault := faults[trial%len(faults)]
		src := genLoopProgram(rng, fault)
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated program invalid: %v\n%s", trial, err, src)
		}
		for _, kind := range diffVariants {
			var base verdict
			for li, lv := range optLevels {
				instrumented, _, err := Apply(mod, lv.opts)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, lv.name, err)
				}
				env := newEnv(t, kind)
				mach := interp.New(instrumented, env)
				mach.MaxSteps = 1 << 24
				got, runErr := mach.Run("main")
				v := verdict{errored: runErr != nil, trapped: hooks.IsSafetyTrap(runErr)}
				if runErr == nil {
					v.value = got
				}
				if li == 0 {
					base = v
					continue
				}
				if v != base {
					t.Fatalf("trial %d (%s) %s: verdict diverged at %s: %+v vs %s %+v\n%s",
						trial, fault, kind, lv.name, v, optLevels[0].name, base, src)
				}
			}
			if kind == variant.SPP && fault != faultNone && !base.trapped {
				t.Errorf("trial %d (%s) %s: out-of-bounds loop access not trapped\n%s",
					trial, fault, kind, src)
			}
		}
	}
}

// TestLoopElisionRate: on the loop-heavy corpus the range+loop tiers
// together must elide at least 35% of the bound checks that survive
// preemption and hoisting (the value-range tier alone clears 20% on
// the straight-line corpus).
func TestLoopElisionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	baseOpts := Options{DisableValueRange: true, DisableLoopOpt: true, DisableFlushElim: true}
	loopOpts := Options{DisableFlushElim: true}
	var surviving, withLoop int
	count := func(src string) {
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("invalid program: %v\n%s", err, src)
		}
		_, base, err := Apply(mod, baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		_, full, err := Apply(mod, loopOpts)
		if err != nil {
			t.Fatal(err)
		}
		surviving += base.CheckBounds
		withLoop += full.CheckBounds
	}
	for trial := 0; trial < 30; trial++ {
		count(genLoopProgram(rng, faultNone))
	}
	count(loopProgram)
	count(ablationKernel)
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "examples", "compiler-pass", "*.ir"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no compiler-pass fixtures found: %v", err)
	}
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		count(string(b))
	}
	if surviving == 0 {
		t.Fatal("corpus produced no bound checks")
	}
	rate := float64(surviving-withLoop) / float64(surviving)
	t.Logf("bound checks surviving preemption+hoisting: %d, after range+loop: %d (%.0f%% elided)",
		surviving, withLoop, rate*100)
	if rate < 0.35 {
		t.Errorf("range+loop elision rate %.1f%% below the 35%% acceptance bar", rate*100)
	}
}

// Call shapes genCallProgram can build.
const (
	callLoop   = "callee-loop"   // the callee iterates over the object it is handed
	callFault  = "callee-fault"  // the callee stores past the end of the object it is handed
	callShared = "shared-callee" // a persistent and a volatile object through the same callees
)

var callShapes = []string{callLoop, callFault, callShared}

// genCallProgram builds a random inter-procedural program: @poke stores
// through a pointer parameter at a run-time offset and @sum loops over
// one, so neither callee knows its object's size and both keep their
// checks; @main fills a persistent and a volatile object through @poke
// (several call sites, one callee) and then, by shape, sums one object,
// sums both through the same @sum, or pokes past the end.
func genCallProgram(rng *rand.Rand, shape string) string {
	const objSize = 256
	var b strings.Builder
	b.WriteString(`func @poke(%p, %off, %v) {
entry:
  %q = gep %p, %off
  store.8 %q, %v
  ret %v
}
func @sum(%p, %n) {
entry:
  %eight = const 8
  %zero = const 0
  %one = const 1
  %slot = malloc %eight
  store.8 %slot, %zero
  %acc = malloc %eight
  store.8 %acc, %zero
  br loop
loop:
  %i = load.8 %slot
  %off = mul %i, %eight
  %q = gep %p, %off
  %x = load.8 %q
  %a = load.8 %acc
  %s = add %a, %x
  store.8 %acc, %s
  %i2 = add %i, %one
  store.8 %slot, %i2
  %c = icmp.lt %i2, %n
  condbr %c, loop, done
done:
  %r = load.8 %acc
  ret %r
}
func @main() {
entry:
`)
	fmt.Fprintf(&b, "  %%size = const %d\n  %%oid = pmalloc %%size\n  %%pm = direct %%oid\n  %%vol = malloc %%size\n", objSize)
	for i, n := 0, rng.Intn(6)+3; i < n; i++ {
		obj := []string{"%pm", "%vol"}[rng.Intn(2)]
		fmt.Fprintf(&b, "  %%o%d = const %d\n  %%v%d = const %d\n  %%w%d = call @poke, %s, %%o%d, %%v%d\n",
			i, rng.Intn(objSize/8)*8, i, rng.Intn(1000), i, obj, i, i)
	}
	fmt.Fprintf(&b, "  %%n = const %d\n", rng.Intn(objSize/8)+1)
	switch shape {
	case callLoop:
		b.WriteString("  %r = call @sum, %pm, %n\n")
	case callShared:
		b.WriteString("  %r1 = call @sum, %pm, %n\n  %r2 = call @sum, %vol, %n\n  %r = add %r1, %r2\n")
	case callFault:
		fmt.Fprintf(&b, "  %%oob = const %d\n  %%r = call @poke, %%pm, %%oob, %%n\n", objSize+rng.Intn(4)*8)
	}
	b.WriteString("  ret %r\n}\n")
	return b.String()
}

// TestCallShapeVerdicts: a check inside a callee guards an object only
// the caller has sized. At every optimization rung and under every
// variant the call corpus must compute what the uninstrumented program
// computes natively, and a callee's out-of-bounds store must reach the
// same verdict — a trap, under the tag-carrying variants.
func TestCallShapeVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 12; trial++ {
		shape := callShapes[trial%len(callShapes)]
		src := genCallProgram(rng, shape)
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated program invalid: %v\n%s", trial, err, src)
		}
		native, err := interp.New(mod, newEnv(t, variant.PMDK)).Run("main")
		if err != nil {
			t.Fatalf("trial %d: native run failed: %v\n%s", trial, err, src)
		}
		for _, kind := range diffVariants {
			var base verdict
			for li, lv := range optLevels {
				instrumented, _, err := Apply(mod, lv.opts)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, lv.name, err)
				}
				got, runErr := interp.New(instrumented, newEnv(t, kind)).Run("main")
				v := verdict{errored: runErr != nil, trapped: hooks.IsSafetyTrap(runErr)}
				if runErr == nil {
					v.value = got
				}
				if li == 0 {
					base = v
				} else if v != base {
					t.Fatalf("trial %d (%s) %s: verdict diverged at %s: %+v vs %s %+v\n%s",
						trial, shape, kind, lv.name, v, optLevels[0].name, base, src)
				}
			}
			switch {
			case shape != callFault && (base.errored || base.value != native):
				t.Errorf("trial %d (%s) %s: %+v, native result %d\n%s", trial, shape, kind, base, native, src)
			case shape == callFault && (kind == variant.SPP || kind == variant.SPPPacked) && !base.trapped:
				t.Errorf("trial %d (%s) %s: callee's out-of-bounds store not trapped\n%s", trial, shape, kind, src)
			}
		}
	}
}

// ablationKernel mirrors the shape of the bench ablation program: an
// unannotated slot-IV loop over a known-size persistent array, which
// the loop tier must fully prove.
const ablationKernel = `
func @main() {
entry:
  %size = const 4096
  %oid = pmalloc %size
  %p = direct %oid
  %eight = const 8
  %slot = malloc %eight
  %zero = const 0
  %one = const 1
  store.8 %slot, %zero
  br loop
loop:
  %i = load.8 %slot
  %off = mul %i, %eight
  %q = gep %p, %off
  store.8 %q, %i
  %i2 = add %i, %one
  %lim = const 512
  %c = icmp.lt %i2, %lim
  condbr %c, loop, done
done:
  %last = gep %p, 4088
  %r = load.8 %last
  ret %r
}
`
