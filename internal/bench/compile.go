package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/variant"
)

// Compile quantifies the closure-compiled execution path (DESIGN.md
// §14) against the reference interpreter. It reuses the hook-heavy
// elision corpus with every static-elision tier disabled, so each
// iteration carries its full complement of SPP hooks — the workload
// where per-instruction dispatch cost dominates. Both modes run the
// same instrumented module and must compute the same result; the
// interpreted rows set Machine.NoCompile.
func Compile(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Closure compilation vs reference interpreter (hook-heavy corpus, SPP)",
		Columns: []string{"program", "interpreted", "compiled", "speedup", "B/run"},
	}
	// All elision tiers off: every bound check, tag update and flush
	// the transform would otherwise remove stays live.
	hookHeavy := transform.Options{
		DisableValueRange: true, DisableLoopOpt: true, DisableFlushElim: true,
	}
	iters := uint64(cfg.scaled(100_000) / 100)
	var totInterp, totComp time.Duration
	var totBytes uint64
	var funcs, thunks, hooks int
	for _, p := range elidePrograms {
		m, err := ir.Parse(p.src)
		if err != nil {
			return t, fmt.Errorf("%s: %w", p.name, err)
		}
		instrumented, _, err := transform.Apply(m, hookHeavy)
		if err != nil {
			return t, fmt.Errorf("%s: %w", p.name, err)
		}
		run := func(noCompile bool) (uint64, time.Duration, *interp.Machine, error) {
			env, err := newEnv(variant.SPP, cfg, 0)
			if err != nil {
				return 0, 0, nil, err
			}
			mach := interp.New(instrumented, env)
			mach.NoCompile = noCompile
			mach.MaxSteps = 1 << 40
			start := time.Now()
			got, err := mach.Run("main", iters)
			return got, time.Since(start), mach, err
		}
		wantV, dInterp, _, err := run(true)
		if err != nil {
			return t, fmt.Errorf("%s (interpreted): %w", p.name, err)
		}
		gotV, dComp, mach, err := run(false)
		if err != nil {
			return t, fmt.Errorf("%s (compiled): %w", p.name, err)
		}
		if gotV != wantV {
			return t, fmt.Errorf("%s: compiled result %d != interpreted %d", p.name, gotV, wantV)
		}
		st := mach.CompileStats()
		if st.Funcs == 0 {
			return t, fmt.Errorf("%s: no functions compiled", p.name)
		}
		// Go heap bytes of one more, already compiled and linked run:
		// what the executor itself allocates per execution.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := mach.Run("main", iters); err != nil {
			return t, fmt.Errorf("%s (compiled, second run): %w", p.name, err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		totBytes += bytes
		funcs += st.Funcs
		thunks += st.Thunks
		hooks += st.Hooks
		totInterp += dInterp
		totComp += dComp
		t.Rows = append(t.Rows, []string{
			p.name,
			fmt.Sprintf("%.2fms", float64(dInterp.Microseconds())/1000),
			fmt.Sprintf("%.2fms", float64(dComp.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(dInterp)/float64(dComp)),
			fmt.Sprint(bytes),
		})
	}
	t.Rows = append(t.Rows, []string{
		"total",
		fmt.Sprintf("%.2fms", float64(totInterp.Microseconds())/1000),
		fmt.Sprintf("%.2fms", float64(totComp.Microseconds())/1000),
		fmt.Sprintf("%.2fx", float64(totInterp)/float64(totComp)),
		fmt.Sprint(totBytes),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d funcs lowered to %d thunks (%d SPP hook sites inlined); "+
			"all elision tiers disabled so every hook stays live", funcs, thunks, hooks),
		"B/run is the Go heap a second compiled run allocates (registers and "+
			"call arguments live on the machine's register stack)",
		"both rows execute the same instrumented module; interpreted rows run the "+
			"reference interpreter, and compiled runs fall back per function when "+
			"SSA dominance does not hold")
	return t, nil
}
