package transform

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hooks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/variant"
)

// fuzzRun executes an instrumented module's @main once on a fresh SPP environment in one executor, under
// a step budget small enough that a generated loop or recursion ends
// quickly. @main's one parameter, if it has one, is an iteration count.
func fuzzRun(t *testing.T, mod *ir.Module, noCompile bool) (uint64, error) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 2 << 20, HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mach := interp.New(mod, env)
	mach.NoCompile = noCompile
	mach.MaxSteps = 20000
	if len(mod.Func("main").Params) == 1 {
		return mach.Run("main", 3)
	}
	return mach.Run("main")
}

// FuzzCompiledVsInterpreted feeds IR text through the whole toolchain —
// parse and verify, the default pass pipeline, then both executors —
// and requires the compiled run to be the interpreter's: same value,
// same error, same safety-trap verdict, and no panic anywhere. Seeds
// are the shipped fixtures, the ledger's corpus and the generated call
// shapes.
func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, dir := range []string{"examples/compiler-pass", "benchmarks/corpus"} {
		files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.ir"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no seeds under %s: %v", dir, err)
		}
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range callShapes {
		f.Add(genCallProgram(rng, shape))
	}
	f.Add(mixedCallProgram)

	f.Fuzz(func(t *testing.T, src string) {
		mod, err := ir.Parse(src)
		if err != nil {
			return
		}
		if main := mod.Func("main"); main == nil || main.External || len(main.Params) > 1 {
			return
		}
		instrumented, _, err := Apply(mod, Options{})
		if err != nil {
			return
		}
		want, wantErr := fuzzRun(t, instrumented, true)
		got, gotErr := fuzzRun(t, instrumented, false)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
			hooks.IsSafetyTrap(gotErr) != hooks.IsSafetyTrap(wantErr) {
			t.Errorf("compiled: %d, %v\ninterpreted: %d, %v\n%s", got, gotErr, want, wantErr, src)
		}
	})
}
