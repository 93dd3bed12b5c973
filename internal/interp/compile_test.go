package interp

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/variant"
)

// TestCompileAllCounts checks the compile/fallback accounting on a
// module with one compilable function and one that must decline (its
// only use is defined later in the same block, behind a backedge).
func TestCompileAllCounts(t *testing.T) {
	m := parse(t, `
func @good(%a) {
entry:
  %one = const 1
  %b = add %a, %one
  ret %b
}
func @bad() {
entry:
  br loop
loop:
  %y = add %x, %x
  %x = const 1
  %c = icmp.lt %y, %x
  condbr %c, loop, out
out:
  ret %y
}
`)
	mach := New(m, env(t, variant.PMDK))
	st := mach.CompileAll()
	if st.Funcs != 1 || st.Fallbacks != 1 {
		t.Fatalf("CompileAll: %+v, want 1 compiled / 1 fallback", st)
	}
	if st.Thunks != 3 {
		t.Errorf("Thunks = %d, want 3 (good's instruction count)", st.Thunks)
	}
	// The fallback function must keep the interpreter's
	// fault-on-undefined semantics.
	if _, err := mach.Run("bad"); err == nil || !strings.Contains(err.Error(), "undefined value") {
		t.Errorf("bad() = %v, want undefined-value fault", err)
	}
	if got, err := mach.Run("good", 41); err != nil || got != 42 {
		t.Errorf("good(41) = %d, %v", got, err)
	}
}

// TestNoCompileKnob checks the interpreter's one selector: a machine
// with NoCompile set runs every function interpreted.
func TestNoCompileKnob(t *testing.T) {
	src := `
func @main(%a) {
entry:
  ret %a
}
`
	mach := New(parse(t, src), env(t, variant.PMDK))
	mach.NoCompile = true
	if got, err := mach.Run("main", 7); err != nil || got != 7 {
		t.Fatalf("interpreted main(7) = %d, %v", got, err)
	}
	if st := mach.CompileStats(); st.Funcs != 0 {
		t.Errorf("NoCompile machine compiled %d funcs", st.Funcs)
	}
}

// TestCompiledHookThunks: under SPP every hook site must be lowered
// (and counted) rather than interpreted, and the compiled hooks must
// still catch an out-of-bounds access.
func TestCompiledHookThunks(t *testing.T) {
	m := parse(t, `
func @main() {
entry:
  %size = const 64
  %oid = pmalloc %size
  %p = direct %oid
  %t = spp.updatetag %p, 64
  %q = gep %p, 64
  %a = spp.checkbound.8 %t
  store.8 %a, %size
  ret %size
}
`)
	mach := New(m, env(t, variant.SPP))
	st := mach.CompileAll()
	if st.Funcs != 1 {
		t.Fatalf("CompileAll: %+v", st)
	}
	if st.Hooks != 2 {
		t.Errorf("Hooks = %d, want 2 (updatetag + checkbound)", st.Hooks)
	}
	if _, err := mach.Run("main"); err == nil {
		t.Error("compiled SPP hooks let an overflow through")
	}
}

// TestCompiledExternalRegistry: externals registered after compilation
// must be visible to already-compiled call sites.
func TestCompiledExternalRegistry(t *testing.T) {
	m := parse(t, `
extern @ext_double
func @main(%a) {
entry:
  %r = callext @ext_double, %a
  ret %r
}
`)
	mach := New(m, env(t, variant.PMDK))
	mach.CompileAll()
	mach.RegisterExternal("ext_double", func(m *Machine, args []uint64) (uint64, error) {
		return args[0] * 2, nil
	})
	if got, err := mach.Run("main", 21); err != nil || got != 42 {
		t.Errorf("main(21) = %d, %v", got, err)
	}
}

// TestCompiledStepBudget: the compiled dispatch shares MaxSteps with
// the interpreter.
func TestCompiledStepBudget(t *testing.T) {
	m := parse(t, `
func @main() {
entry:
  br spin
spin:
  br spin
}
`)
	mach := New(m, env(t, variant.PMDK))
	mach.MaxSteps = 1000
	if _, err := mach.Run("main"); err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("spin = %v, want step-budget fault", err)
	}
}

// TestCompileTelemetry: the compile counters must reach the default
// registry's Prometheus exposition.
func TestCompileTelemetry(t *testing.T) {
	telemetry.Enable()
	m := parse(t, `
func @main(%a) {
entry:
  ret %a
}
func @dead() {
entry:
  br loop
loop:
  %y = add %x, %x
  %x = const 1
  ret %y
}
`)
	mach := New(m, env(t, variant.PMDK))
	mach.CompileAll()
	var sb strings.Builder
	telemetry.Default.WriteProm(&sb)
	out := sb.String()
	for _, metric := range []string{
		"spp_compiled_funcs_total",
		"spp_interp_fallback_total",
		"spp_compile_ns",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("prometheus exposition missing %s", metric)
		}
	}
}
