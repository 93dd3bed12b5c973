package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/benchmarks/corpus"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/variant"
)

// ir_exec: the compiler path. The corpus is parsed, instrumented with
// the default transform options and closure-compiled; it then runs at
// a fixed iteration count under pmdk and spp in interleaved windows.
// Results are checked against the reference interpreter (NoCompile).

// irIters is the fixed per-kernel iteration count: run_ms is only
// comparable between runs that use the same count.
const irIters = 1000

const (
	irPoolSize = 64 << 20
	// kernel-param allocates 16 volatile bytes per iteration and the
	// volatile heap never frees, so it is sized for a few thousand runs.
	irHeapSize = 64 << 20
)

var irVariants = [2]variant.Kind{variant.PMDK, variant.SPP}

type irProgram struct{ name, src string }

func loadCorpus() ([]irProgram, error) {
	entries, err := corpus.Files.ReadDir(".")
	if err != nil {
		return nil, err
	}
	var progs []irProgram
	for _, e := range entries {
		src, err := corpus.Files.ReadFile(e.Name())
		if err != nil {
			return nil, err
		}
		progs = append(progs, irProgram{strings.TrimSuffix(e.Name(), ".ir"), string(src)})
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	return progs, nil
}

// irMachine is one compiled program bound to an environment.
type irMachine struct {
	name string
	mach *interp.Machine
	args []uint64
}

func newIREnv(kind variant.Kind) (*variant.Env, error) {
	return variant.New(kind, variant.Options{PoolSize: irPoolSize, HeapSize: irHeapSize})
}

// compileCorpus is the whole compile pipeline — parse, instrument,
// closure-compile — for every program, bound to env.
func compileCorpus(progs []irProgram, env *variant.Env, iters uint64, noCompile bool) ([]irMachine, error) {
	out := make([]irMachine, 0, len(progs))
	for _, p := range progs {
		m, err := ir.Parse(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		instrumented, _, err := transform.Apply(m, transform.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		mach := interp.New(instrumented, env)
		mach.MaxSteps = 1 << 50
		// clean.ir hands a masked pointer to uninstrumented code and
		// returns what that code returns. The stock ext_identity echoes
		// the address, which depends on allocator history; reading
		// through the pointer instead gives a result that repeats, and
		// faults if the pointer reached the callee still tagged.
		mach.RegisterExternal("ext_identity", func(_ *interp.Machine, args []uint64) (uint64, error) {
			if len(args) != 1 {
				return 0, fmt.Errorf("ext_identity wants 1 arg")
			}
			return env.AS.LoadU64(args[0])
		})
		mach.NoCompile = noCompile
		if !noCompile {
			mach.CompileAll()
		}
		im := irMachine{name: p.name, mach: mach}
		if main := instrumented.Func("main"); main != nil && len(main.Params) == 1 {
			im.args = []uint64{iters}
		}
		out = append(out, im)
	}
	return out, nil
}

// runCorpus executes every program's main once and returns the results
// and the total execution time.
func runCorpus(ms []irMachine) ([]uint64, time.Duration, error) {
	res := make([]uint64, len(ms))
	t0 := time.Now()
	for i, m := range ms {
		v, err := m.mach.Run("main", m.args...)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", m.name, err)
		}
		res[i] = v
	}
	return res, time.Since(t0), nil
}

type irEnv struct {
	progs    []irProgram
	envs     [2]*variant.Env
	machines [2][]irMachine
}

func setupIR(iters uint64) (*irEnv, error) {
	progs, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	e := &irEnv{progs: progs}
	for v, kind := range irVariants {
		if e.envs[v], err = newIREnv(kind); err != nil {
			return nil, err
		}
		if e.machines[v], err = compileCorpus(progs, e.envs[v], iters, false); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// irReference runs the corpus on the reference interpreter under SPP.
func irReference(progs []irProgram, iters uint64) ([]uint64, time.Duration, error) {
	env, err := newIREnv(variant.SPP)
	if err != nil {
		return nil, 0, err
	}
	ms, err := compileCorpus(progs, env, iters, true)
	if err != nil {
		return nil, 0, err
	}
	return runCorpus(ms)
}

func runIR(sc scale, seed uint64) (*result, error) {
	r := newResult(wIRExec)
	e, err := timedSetup(r, sc.setupReps,
		func() (*irEnv, error) { return setupIR(sc.iters) },
		func(*irEnv) {})
	if err != nil {
		return nil, err
	}
	want, _, err := irReference(e.progs, sc.iters)
	if err != nil {
		return nil, fmt.Errorf("reference interpreter: %w", err)
	}
	var compileMS, runMS, slowdown, rate []float64
	var allocBytes uint64
	start := time.Now()
	for w := 0; ; w++ { // window 0 is the discarded warm-up
		// At least three measured windows however short the run.
		if w > 3 && time.Since(start) >= sc.dur {
			break
		}
		if w == 1 {
			start = time.Now()
		}
		t0 := time.Now()
		if _, err := compileCorpus(e.progs, e.envs[1], sc.iters, false); err != nil {
			return nil, err
		}
		compiled := time.Since(t0)

		var took [2]time.Duration
		meter := startAllocMeter()
		for _, v := range [2]int{w % 2, 1 - w%2} { // alternate which variant runs first
			got, d, err := runCorpus(e.machines[v])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", irVariants[v], err)
			}
			took[v] = d
			r.Attempted += int64(len(got))
			for i := range got {
				if got[i] != want[i] {
					r.fail("%s under %s: compiled result %d, reference %d", e.progs[i].name, irVariants[v], got[i], want[i])
				}
			}
		}
		allocBytes += meter.bytes()
		if w == 0 {
			continue
		}
		compileMS = append(compileMS, compiled.Seconds()*1e3)
		runMS = append(runMS, took[1].Seconds()*1e3)
		slowdown = append(slowdown, took[1].Seconds()/took[0].Seconds())
		rate = append(rate, float64(len(e.progs))/took[1].Seconds())
	}
	r.Metrics["go_alloc_bytes_per_op"] = single(float64(allocBytes) / float64(max(r.Attempted, 1)))
	r.Metrics["ops_per_s"] = quartileOf(rate, "higher")
	r.Metrics["compile_ms"] = quartileOf(compileMS, "lower")
	r.Metrics["run_ms"] = quartileOf(runMS, "lower")
	r.Metrics["spp_slowdown"] = medianOf(slowdown)
	_ = seed // the corpus is fixed; inputs do not depend on the seed
	return r, nil
}
