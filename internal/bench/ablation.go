package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/safepm"
	"repro/internal/telemetry"
	"repro/internal/transform"
	"repro/internal/variant"
)

// ablationProgram is a loop-heavy mixed workload for the compiler-pass
// ablation: a persistent array summed in an annotated loop (hoistable),
// a basic block with several accesses to one object (preemptible), and
// volatile work that pointer tracking prunes.
const ablationProgram = `
func @main(%iters) {
entry:
  %size = const 4096
  %oid = pmalloc %size
  %p = direct %oid
  %eight = const 8
  %islot = malloc %eight
  %oslot = malloc %eight
  %acc = malloc %eight
  %zero = const 0
  store.8 %acc, %zero
  store.8 %oslot, %zero
  br outer
outer:
  %o = load.8 %oslot
  %more = icmp.lt %o, %iters
  condbr %more, fill, end
fill:
  store.8 %islot, %zero
  br loop
loop: !loop.bound 512
  %i = load.8 %islot
  %c8 = const 8
  %off = mul %i, %c8
  %q = gep %p, %off
  store.8 %q, %i
  %one = const 1
  %i2 = add %i, %one
  store.8 %islot, %i2
  %n = const 512
  %c = icmp.lt %i2, %n
  condbr %c, loop, block
block:
  %a = gep %p, 0
  %x = load.8 %a
  %b = gep %p, 8
  %y = load.8 %b
  %d = gep %p, 16
  %z = load.8 %d
  %xy = add %x, %y
  %xyz = add %xy, %z
  %old = load.8 %acc
  %new = add %old, %xyz
  store.8 %acc, %new
  %o2 = load.8 %oslot
  %one2 = const 1
  %onext = add %o2, %one2
  store.8 %oslot, %onext
  br outer
end:
  %r = load.8 %acc
  ret %r
}
`

// ablationConfigs are the pass combinations of the DESIGN.md §7
// ablation.
var ablationConfigs = []struct {
	name string
	opts transform.Options
}{
	// Value-range elision subsumes preemption and hoisting wherever it
	// proves a chain, so the classic optimizations are measured with it
	// off — otherwise they would have nothing left to merge or hoist.
	{"full (paper default)", transform.Options{}},
	{"no value-range elision", transform.Options{DisableValueRange: true}},
	{"no pointer tracking", transform.Options{
		DisablePointerTracking: true, DisableValueRange: true,
	}},
	{"no preemption/hoisting", transform.Options{
		DisablePreemption: true, DisableHoisting: true, DisableValueRange: true,
		DisableLoopOpt: true,
	}},
	{"no optimizations", transform.Options{
		DisablePointerTracking: true, DisablePreemption: true,
		DisableHoisting: true, DisableLTO: true, DisableValueRange: true,
		DisableLoopOpt: true, DisableFlushElim: true,
	}},
}

// Ablation quantifies the design choices DESIGN.md calls out: the
// compiler optimizations (static hook counts and dynamic run time of
// an instrumented loop kernel under SPP), the _direct hook variant,
// and SafePM's PM-media latency model.
func Ablation(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title: "Ablation: SPP pass optimizations, _direct hooks, SafePM medium model",
		Columns: []string{"configuration", "updatetags", "checks", "pruned",
			"merged+hoisted", "elided", "runtime", "vs full"},
	}
	mod, err := ir.Parse(ablationProgram)
	if err != nil {
		return t, err
	}
	iters := uint64(cfg.scaled(100_000) / 100)
	var baseline time.Duration
	var want uint64
	for i, ac := range ablationConfigs {
		instrumented, stats, err := transform.Apply(mod, ac.opts)
		if err != nil {
			return t, err
		}
		env, err := newEnv(variant.SPP, cfg, 0)
		if err != nil {
			return t, err
		}
		mach := interp.New(instrumented, env)
		mach.MaxSteps = 1 << 40
		start := time.Now()
		got, err := mach.Run("main", iters)
		if err != nil {
			return t, fmt.Errorf("%s: %w", ac.name, err)
		}
		d := time.Since(start)
		if i == 0 {
			baseline, want = d, got
		} else if got != want {
			return t, fmt.Errorf("%s: result %d != %d", ac.name, got, want)
		}
		t.Rows = append(t.Rows, []string{
			ac.name,
			fmt.Sprintf("%d", stats.UpdateTags),
			fmt.Sprintf("%d", stats.CheckBounds),
			fmt.Sprintf("%d", stats.PrunedVolatile),
			fmt.Sprintf("%d", stats.Preempted+stats.Hoisted),
			fmt.Sprintf("%d", stats.RangeElidedChecks+stats.RangeElidedTags),
			fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(d)/float64(baseline)),
		})
	}

	// The _direct hook variant: generic vs known-PM check cost.
	env, err := newEnv(variant.SPP, cfg, 0)
	if err != nil {
		return t, err
	}
	oid, err := env.RT.Alloc(4096)
	if err != nil {
		return t, err
	}
	p := env.RT.Direct(oid)
	n := cfg.scaled(10_000_000)
	generic := timeHookLoop(n, func(i int) error {
		_, err := hooks.LoadU64(env.RT, env.RT.Gep(p, int64(i%512)*8))
		return err
	})
	direct := timeHookLoop(n, func(i int) error {
		_, err := hooks.LoadU64PM(env.RT, env.RT.Gep(p, int64(i%512)*8))
		return err
	})
	t.Rows = append(t.Rows, []string{
		"_direct hooks (known-PM)", "-", "-", "-", "-", "-",
		fmt.Sprintf("%.2fms", float64(direct.Microseconds())/1000),
		fmt.Sprintf("%.2fx vs generic %.2fms", float64(direct)/float64(generic),
			float64(generic.Microseconds())/1000),
	})

	// SafePM's PM-media latency model on/off.
	for _, loops := range []int{0, 48} {
		old := safepm.ShadowLatencyLoops
		safepm.ShadowLatencyLoops = loops
		envS, err := newEnv(variant.SafePM, cfg, 0)
		if err != nil {
			safepm.ShadowLatencyLoops = old
			return t, err
		}
		oidS, err := envS.RT.Alloc(4096)
		if err != nil {
			safepm.ShadowLatencyLoops = old
			return t, err
		}
		ps := envS.RT.Direct(oidS)
		d := timeHookLoop(n, func(i int) error {
			_, err := hooks.LoadU64(envS.RT, envS.RT.Gep(ps, int64(i%512)*8))
			return err
		})
		safepm.ShadowLatencyLoops = old
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("safepm shadow latency = %d loops", loops), "-", "-", "-", "-", "-",
			fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000), "-",
		})
	}
	// Arena sharding on/off: an 8-goroutine alloc/free storm on the
	// native runtime, default arena layout vs one serialized arena.
	stormOps := cfg.scaled(400_000)
	var stormBase time.Duration
	for i, mode := range []struct {
		name   string
		arenas int
	}{
		{"sharded arenas (8-goroutine storm)", 0},
		{"1 arena", 1},
	} {
		envN, err := variant.New(variant.PMDK, variant.Options{
			PoolSize: cfg.PoolSize,
			Knobs:    engine.Knobs{NArenas: mode.arenas},
		})
		if err != nil {
			return t, err
		}
		d, err := allocStorm(envN.RT, 8, stormOps/8, cfg.Seed)
		if err != nil {
			return t, fmt.Errorf("%s: %w", mode.name, err)
		}
		rel := "-"
		if i == 0 {
			stormBase = d
		} else if stormBase > 0 {
			rel = fmt.Sprintf("%.2fx", float64(d)/float64(stormBase))
		}
		t.Rows = append(t.Rows, []string{
			mode.name, "-", "-", "-", "-", "-",
			fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000), rel,
		})
	}

	// Telemetry on/off: the same storm with the metrics registry cold
	// (counters gated off) vs hot (every alloc/free/lane event counted).
	wasOn := telemetry.On()
	defer func() {
		if wasOn {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
	}()
	var telemBase time.Duration
	for i, on := range []bool{false, true} {
		if on {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
		envT, err := variant.New(variant.PMDK, variant.Options{
			PoolSize: cfg.PoolSize,
			Knobs:    engine.Knobs{Telemetry: on},
		})
		if err != nil {
			return t, err
		}
		d, err := allocStorm(envT.RT, 8, stormOps/8, cfg.Seed)
		if err != nil {
			return t, fmt.Errorf("telemetry ablation: %w", err)
		}
		rel := "-"
		if i == 0 {
			telemBase = d
		} else if telemBase > 0 {
			rel = fmt.Sprintf("%.2fx", float64(d)/float64(telemBase))
		}
		name := "telemetry off (8-goroutine storm)"
		if on {
			name = "telemetry on"
		}
		t.Rows = append(t.Rows, []string{
			name, "-", "-", "-", "-", "-",
			fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000), rel,
		})
	}

	t.Notes = append(t.Notes,
		"tag width is a capacity trade-off, not a speed one: 26 bits caps objects at 64 MiB "+
			"and pools at 64 GiB; 31 bits (Phoenix) caps objects at 2 GiB and pools at 2 GiB; "+
			"arithmetic cost is identical")
	return t, nil
}

func timeHookLoop(n int, fn func(i int) error) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			break
		}
	}
	return time.Since(start)
}
