package variant

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/pmemobj"
)

// TestAdoptConfigThreadsVolatileKnobs is the regression test for the
// Adopt path losing the volatile knobs: an environment adopted over an
// existing image must honour the requested arena count, and keep
// honouring it across Reopen.
func TestAdoptConfigThreadsVolatileKnobs(t *testing.T) {
	env := newEnv(t, SPP)
	oid, err := env.RT.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := hooks.StoreU64(env.RT, env.RT.Direct(oid), 0xfeed); err != nil {
		t.Fatal(err)
	}
	if err := env.Pool.Close(); err != nil {
		t.Fatal(err)
	}

	opts := Options{Knobs: engine.Knobs{NArenas: 2}}
	adopted, err := AdoptConfig(SPP, env.Dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := adopted.Pool.NArenas(); got != 2 {
		t.Fatalf("adopted pool has %d arenas, want the configured 2", got)
	}

	// The knobs must survive a Reopen (this was the bug: Reopen rebuilt
	// the pool from zero-value options).
	if err := adopted.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := adopted.Pool.NArenas(); got != 2 {
		t.Fatalf("reopened pool has %d arenas, want 2", got)
	}

	// And the adopted environment still reads the pre-crash data.
	v, err := hooks.LoadU64(adopted.RT, adopted.RT.Direct(oid))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeed {
		t.Fatalf("read %#x, want 0xfeed", v)
	}
}

// TestAdoptDefaultsMatchOpen checks the plain Adopt wrapper still
// yields pool defaults.
func TestAdoptDefaultsMatchOpen(t *testing.T) {
	env := newEnv(t, PMDK)
	if err := env.Pool.Close(); err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(PMDK, env.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := adopted.Pool.NArenas(); got != pmemobj.DefaultNArenas {
		t.Fatalf("adopted pool has %d arenas, want default %d", got, pmemobj.DefaultNArenas)
	}
}
