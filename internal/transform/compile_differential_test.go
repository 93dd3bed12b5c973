package transform

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hooks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pmemcheck"
	"repro/internal/variant"
)

// The compiled execution path (internal/interp/compile.go) and the
// reference interpreter must be observably identical: same results on
// in-bounds programs, same fault verdicts on out-of-bounds ones, and
// byte-identical durable images — at every optimization rung, under
// every protection variant. The interpreter is the oracle; these tests
// are the differential harness the refactor is accepted against.

// newMachine builds a machine for mod over a fresh environment, running
// compiled or, with noCompile, in the reference interpreter.
func newMachine(t *testing.T, mod *ir.Module, kind variant.Kind, noCompile bool) (*interp.Machine, *variant.Env) {
	t.Helper()
	env, err := variant.New(kind, variant.Options{PoolSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mach := interp.New(mod, env)
	mach.NoCompile = noCompile
	return mach, env
}

// runVerdict executes instrumented @main in one mode and folds the
// outcome into a verdict.
func runVerdict(t *testing.T, mod *ir.Module, kind variant.Kind, noCompile bool) verdict {
	t.Helper()
	mach, _ := newMachine(t, mod, kind, noCompile)
	mach.MaxSteps = 1 << 24
	got, runErr := mach.Run("main")
	v := verdict{errored: runErr != nil, trapped: hooks.IsSafetyTrap(runErr)}
	if runErr == nil {
		v.value = got
	}
	if !noCompile && !v.errored {
		// A clean compiled run of these corpora must actually have
		// compiled something — guard against silently falling back.
		if st := mach.CompileStats(); st.Funcs == 0 {
			t.Fatalf("compiled run executed %d funcs through the compiler", st.Funcs)
		}
	}
	return v
}

// TestCompiledDifferentialVerdicts sweeps the random straight-line,
// loop and call corpora — in-bounds and fault-injected — across all opt
// rungs and protection variants, requiring the compiled path to
// reproduce the interpreter's verdict exactly.
func TestCompiledDifferentialVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(20240808))
	faults := []string{faultNone, faultOverflow, faultStraddle, faultUnderflow}
	var srcs []string
	for trial := 0; trial < 12; trial++ {
		srcs = append(srcs, genProgram(rng, faults[trial%len(faults)]))
	}
	loopFaults := []string{faultNone, faultLoopOverflow, faultLoopInvar}
	for trial := 0; trial < 6; trial++ {
		srcs = append(srcs, genLoopProgram(rng, loopFaults[trial%len(loopFaults)]))
	}
	for trial := 0; trial < 6; trial++ {
		srcs = append(srcs, genCallProgram(rng, callShapes[trial%len(callShapes)]))
	}
	for si, src := range srcs {
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("program %d invalid: %v\n%s", si, err, src)
		}
		for _, lv := range optLevels {
			instrumented, _, err := Apply(mod, lv.opts)
			if err != nil {
				t.Fatalf("program %d %s: %v", si, lv.name, err)
			}
			for _, kind := range diffVariants {
				interpV := runVerdict(t, instrumented, kind, true)
				compV := runVerdict(t, instrumented, kind, false)
				if interpV != compV {
					t.Fatalf("program %d %s %s: compiled %+v, interpreted %+v\n%s",
						si, lv.name, kind, compV, interpV, src)
				}
			}
		}
	}
}

// TestCompiledDurableImageEquivalence: on the flush/fence corpus the
// compiled path must leave exactly the interpreter's durable images —
// after every fence and at the end — with the same fence count and no
// new pmemcheck violations. Images are XOR-normalized against each
// run's own base because the pool header carries a random identity.
func TestCompiledDurableImageEquivalence(t *testing.T) {
	for _, tc := range flushElimPrograms {
		mod, err := ir.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		instrumented, _, err := Apply(mod, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		type trace struct {
			events  []pmemcheck.Event
			base    []byte
			durable []byte
		}
		runOne := func(noCompile bool) trace {
			t.Helper()
			mach, env := newMachine(t, instrumented, variant.SPP, noCompile)
			tracker := pmemcheck.NewTracker()
			env.Dev.EnableTracking(tracker)
			base := append([]byte(nil), env.Dev.Data()...)
			if _, err := mach.Run("main"); err != nil {
				t.Fatalf("%s (noCompile=%v): run failed: %v", tc.name, noCompile, err)
			}
			durable, err := env.Dev.DurableImage()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return trace{events: tracker.Events(), base: base, durable: durable}
		}
		ref := runOne(true)
		comp := runOne(false)

		if !bytes.Equal(xorDiff(ref.durable, ref.base), xorDiff(comp.durable, comp.base)) {
			t.Errorf("%s: compiled execution changed the final durable image", tc.name)
		}
		imgsRef := pmemcheck.FenceImages(ref.base, ref.events)
		imgsComp := pmemcheck.FenceImages(comp.base, comp.events)
		if len(imgsRef) != len(imgsComp) {
			t.Fatalf("%s: fence count changed: %d vs %d", tc.name, len(imgsRef)-1, len(imgsComp)-1)
		}
		for i := range imgsRef {
			if !bytes.Equal(xorDiff(imgsRef[i], ref.base), xorDiff(imgsComp[i], comp.base)) {
				t.Errorf("%s: durable image after fence %d differs", tc.name, i)
			}
		}
		repRef := pmemcheck.Analyze(ref.events)
		repComp := pmemcheck.Analyze(comp.events)
		if len(repComp.Violations) != len(repRef.Violations) {
			t.Errorf("%s: compiled execution changed pmemcheck violations: %v vs %v",
				tc.name, repComp.Violations, repRef.Violations)
		}
	}
}

// mixedCallProgram crosses executors on an instrumented path: @main and
// @leaf compile, @pick does not (%q is defined on one arm only), and the
// persistent pointer travels through all three. @main's argument is the
// offset @leaf stores at; 256 is one past the object.
const mixedCallProgram = `
func @leaf(%p, %off) {
entry:
  %q = gep %p, %off
  store.8 %q, %off
  %x = load.8 %q
  ret %x
}
func @pick(%p, %off) {
entry:
  %z = const 0
  %c = icmp.eq %off, %z
  condbr %c, zero, other
zero:
  br join
other:
  %q = gep %p, 8
  br join
join:
  %r = call @leaf, %p, %off
  %y = load.8 %q
  %s = add %r, %y
  ret %s
}
func @main(%off) {
entry:
  %size = const 256
  %oid = pmalloc %size
  %p = direct %oid
  %r = call @pick, %p, %off
  ret %r
}
`

// TestCompiledMixedCallPaths: compiled and interpreted frames
// interleave on an instrumented program — in bounds, out of bounds in
// the compiled leaf, and on the interpreter's own undefined-value fault
// — with the same outcome as the interpreter alone at every rung under
// every variant.
func TestCompiledMixedCallPaths(t *testing.T) {
	mod, err := ir.Parse(mixedCallProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range optLevels {
		instrumented, _, err := Apply(mod, lv.opts)
		if err != nil {
			t.Fatalf("%s: %v", lv.name, err)
		}
		for _, kind := range diffVariants {
			for _, off := range []uint64{8, 256, 0} {
				var out [2]string
				for i, noCompile := range []bool{true, false} {
					mach, _ := newMachine(t, instrumented, kind, noCompile)
					got, runErr := mach.Run("main", off)
					out[i] = fmt.Sprintf("%d %v trapped=%v", got, runErr, hooks.IsSafetyTrap(runErr))
					if st := mach.CompileStats(); !noCompile && (st.Funcs != 2 || st.Fallbacks != 1) {
						t.Fatalf("%s %s: %+v, want @main and @leaf compiled, @pick declined", lv.name, kind, st)
					}
				}
				if out[0] != out[1] {
					t.Errorf("%s %s main(%d): interpreted %q, compiled %q", lv.name, kind, off, out[0], out[1])
				}
			}
		}
	}
}
