package bench

import (
	"testing"

	"repro/internal/engine/enginetest"
)

// TestKnobsSurviveTranslation asserts the harness forwards every
// engine knob into the environment options it builds. The knob set is
// filled by reflection, so a field added to engine.Knobs is covered
// here without editing the test.
func TestKnobsSurviveTranslation(t *testing.T) {
	cfg := Config{Knobs: enginetest.Filled()}
	o := cfg.envOptions(0)
	if o.Knobs != cfg.Knobs {
		t.Errorf("envOptions dropped knobs: got %+v, want %+v", o.Knobs, cfg.Knobs)
	}
}

// TestScalingKeepsKnobs: each Scaling column overrides the arena count
// and nothing else, so -metrics, -flight or -metrics-sample reach the
// measured store.
func TestScalingKeepsKnobs(t *testing.T) {
	cfg := Config{Knobs: enginetest.Filled()}
	for _, arenas := range []int{0, 1} {
		o := scalingOptions(cfg, arenas)
		if o.NArenas != arenas {
			t.Errorf("scaling column asked for %d arenas, got %d", arenas, o.NArenas)
		}
		want := cfg.Knobs
		want.NArenas = arenas
		if o.Knobs != want {
			t.Errorf("scaling dropped knobs: got %+v, want %+v", o.Knobs, want)
		}
	}
}
