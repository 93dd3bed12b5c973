// Command sppc is the SPP "compiler" driver: it parses a mini-IR
// module, runs the SPP transformation and LTO passes over it, prints
// the instrumented module and pass statistics, and optionally executes
// the result under a chosen protection mechanism. It also fronts the
// IR safety linter built on the dataflow framework.
//
// Usage:
//
//	sppc program.ir                     # instrument and print
//	sppc -run -protection spp prog.ir   # instrument and execute @main
//	sppc -lint prog.ir                  # safety lint only, no codegen
//	sppc -stats -q prog.ir              # per-analysis statistics table
//	sppc -demo                          # built-in overflow demo
//	sppc -no-tracking -no-preempt ...   # ablate individual passes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/transform"
	"repro/internal/variant"
)

const demo = `; Demo: in-bounds writes succeed, the out-of-bounds one faults.
func @main() {
entry:
  %size = const 64
  %oid = pmalloc %size
  %p = direct %oid
  %v = const 7
  store.8 %p, %v
  %q = gep %p, 56
  store.8 %q, %v
  %over = gep %p, 64
  store.8 %over, %v       ; one past the end: SPP faults here
  ret %v
}
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sppc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sppc", flag.ContinueOnError)
	doRun := fs.Bool("run", false, "execute @main after instrumenting")
	prot := fs.String("protection", "spp", "execution variant: pmdk, spp, safepm, memcheck")
	useDemo := fs.Bool("demo", false, "use the built-in demo program")
	doLint := fs.Bool("lint", false, "run the IR safety linter; non-zero exit on findings")
	doStats := fs.Bool("stats", false, "print the per-analysis statistics table")
	noTracking := fs.Bool("no-tracking", false, "disable pointer tracking")
	noPreempt := fs.Bool("no-preempt", false, "disable bound-check preemption")
	noHoist := fs.Bool("no-hoist", false, "disable loop check hoisting")
	noElide := fs.Bool("no-elide", false, "disable value-range check elision")
	noLoop := fs.Bool("no-loop", false, "disable the loop analysis tier (IV ranges, invariant hoist, widened checks)")
	noFlushElim := fs.Bool("no-flush-elim", false, "disable static elimination of provably-redundant flushes")
	noLTO := fs.Bool("no-lto", false, "disable the LTO class refinement")
	restore := fs.Bool("restore-intptr", false, "re-derive laundered pointers via use-def chains (§IV-G mitigation)")
	quiet := fs.Bool("q", false, "do not print the modules")
	knobs := engine.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src, name string
	switch {
	case *useDemo:
		src, name = demo, "demo"
	case fs.NArg() == 1:
		name = fs.Arg(0)
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		src = string(b)
	default:
		return fmt.Errorf("usage: sppc [flags] <program.ir> (or -demo)")
	}

	mod, err := ir.Parse(src)
	if err != nil {
		return err
	}

	if *doLint {
		diags := analysis.Lint(mod)
		if len(diags) == 0 {
			fmt.Fprintf(out, "lint: %s: clean\n", name)
			return nil
		}
		for _, d := range diags {
			fmt.Fprintf(out, "%s: %s\n", name, d)
		}
		return fmt.Errorf("lint: %d issue(s) in %s", len(diags), name)
	}

	opts := transform.Options{
		DisablePointerTracking: *noTracking,
		DisablePreemption:      *noPreempt,
		DisableHoisting:        *noHoist,
		DisableValueRange:      *noElide,
		DisableLoopOpt:         *noLoop,
		DisableFlushElim:       *noFlushElim,
		DisableLTO:             *noLTO,
		RestoreIntPtr:          *restore,
	}
	instrumented, stats, err := transform.Apply(mod, opts)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintln(out, "--- input module ---")
		fmt.Fprint(out, mod.String())
		fmt.Fprintln(out, "--- instrumented module ---")
		fmt.Fprint(out, instrumented.String())
	}
	var mach *interp.Machine
	if *doStats || *doRun {
		env, err := variant.New(variant.Kind(*prot),
			variant.Options{PoolSize: 64 << 20, Knobs: *knobs})
		if err != nil {
			return err
		}
		mach = interp.New(instrumented, env)
	}
	if *doStats {
		printStats(out, stats)
		fmt.Fprintln(out, "closure compilation:")
		cst := mach.CompileAll()
		fmt.Fprintf(out, "  funcs compiled        %d\n", cst.Funcs)
		fmt.Fprintf(out, "  thunks emitted        %d\n", cst.Thunks)
		fmt.Fprintf(out, "  hooks inlined         %d\n", cst.Hooks)
		fmt.Fprintf(out, "  interp fallbacks      %d\n", cst.Fallbacks)
		fmt.Fprintln(out, "safety linter:")
		fmt.Fprintf(out, "  diagnostics           %d\n", len(analysis.Lint(mod)))
	} else {
		fmt.Fprintf(out, "--- pass statistics ---\n%+v\n", stats)
	}

	if !*doRun {
		return nil
	}
	auditMark := telemetry.Audit.Total()
	ret, err := mach.Run("main")
	switch {
	case hooks.IsSafetyTrap(err):
		fmt.Fprintf(out, "--- execution under %s ---\nMEMORY-SAFETY VIOLATION DETECTED: %v\n", *prot, err)
		for _, v := range telemetry.Audit.RecordsSince(auditMark) {
			fmt.Fprintf(out, "audit: %s\n", v)
		}
	case err != nil:
		return err
	default:
		fmt.Fprintf(out, "--- execution under %s ---\n@main returned %d\n", *prot, ret)
	}
	return nil
}

// printStats renders the statistics grouped by the analysis that
// produced them, one "name value" line each — stable output for
// scripting and golden tests.
func printStats(out io.Writer, s transform.Stats) {
	fmt.Fprintln(out, "--- per-analysis statistics ---")
	fmt.Fprintln(out, "pointer provenance (interprocedural):")
	fmt.Fprintf(out, "  persistent values     %d\n", s.ClassPersistent)
	fmt.Fprintf(out, "  volatile values       %d\n", s.ClassVolatile)
	fmt.Fprintf(out, "  unknown values        %d\n", s.ClassUnknown)
	fmt.Fprintf(out, "  reclassified          %d\n", s.Reclassified)
	fmt.Fprintf(out, "  pruned volatile hooks %d\n", s.PrunedVolatile)
	fmt.Fprintln(out, "value-range bound proving:")
	fmt.Fprintf(out, "  elided checks         %d\n", s.RangeElidedChecks)
	fmt.Fprintf(out, "  elided tag updates    %d\n", s.RangeElidedTags)
	fmt.Fprintf(out, "  cleantag anchors      %d\n", s.RangeAnchors)
	fmt.Fprintln(out, "classic optimizations:")
	fmt.Fprintf(out, "  preempted checks      %d\n", s.Preempted)
	fmt.Fprintf(out, "  hoisted checks        %d\n", s.Hoisted)
	fmt.Fprintf(out, "  restored int-to-ptrs  %d\n", s.RestoredPtrs)
	fmt.Fprintln(out, "loop analysis:")
	fmt.Fprintf(out, "  invariant hoisted     %d\n", s.LoopInvariantHoisted)
	fmt.Fprintf(out, "  widened IV checks     %d\n", s.WidenedIVChecks)
	fmt.Fprintln(out, "persistence ordering:")
	fmt.Fprintf(out, "  flushes elided        %d\n", s.FlushesElided)
	fmt.Fprintln(out, "instrumentation:")
	fmt.Fprintf(out, "  updatetag hooks       %d\n", s.UpdateTags)
	fmt.Fprintf(out, "  checkbound hooks      %d\n", s.CheckBounds)
	fmt.Fprintf(out, "  cleantag hooks        %d\n", s.CleanTags)
	fmt.Fprintf(out, "  external-call masks   %d\n", s.CleanExternals)
	fmt.Fprintf(out, "  wrapped intrinsics    %d\n", s.WrappedIntrins)
	fmt.Fprintf(out, "  _direct hooks         %d\n", s.DirectHooks)
}
