package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDemo(t *testing.T) {
	if err := run([]string{"-demo", "-q"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-demo", "-q", "-run"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-demo", "-q", "-run", "-protection", "pmdk"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-demo", "-q", "-no-tracking", "-no-preempt",
		"-no-hoist", "-no-elide", "-no-lto", "-restore-intptr"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.ir")
	src := "func @main() {\nentry:\n  %x = const 5\n  ret %x\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-q", "-run", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("no input accepted")
	}
	if err := run([]string{"/nonexistent.ir"}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-demo", "-q", "-run", "-protection", "bogus"}, io.Discard); err == nil {
		t.Error("bogus protection accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.ir")
	if err := os.WriteFile(path, []byte("not ir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-q", path}, io.Discard); err == nil {
		t.Error("bad IR accepted")
	}
}

// TestRunawayRecursion: the recursive fixture must end as an error, not
// as the runtime's fatal stack overflow. (The interpreter's depth bound
// is covered by internal/interp's cross-executor depth tests.)
func TestRunawayRecursion(t *testing.T) {
	fx := filepath.Join("..", "..", "examples", "compiler-pass", "recursive.ir")
	err := run([]string{"-q", "-run", fx}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "call depth exceeded in @f") {
		t.Errorf("sppc -run recursive.ir = %v, want call depth exceeded in @f", err)
	}
}

// TestLintCommand lints the shipped example fixtures: the clean one
// must pass, the laundered one must fail with both diagnostics and an
// actionable repair hint.
func TestLintCommand(t *testing.T) {
	var buf strings.Builder
	clean := filepath.Join("..", "..", "examples", "compiler-pass", "clean.ir")
	if err := run([]string{"-lint", clean}, &buf); err != nil {
		t.Fatalf("clean fixture flagged: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "clean") {
		t.Errorf("missing clean verdict: %s", buf.String())
	}

	buf.Reset()
	laundered := filepath.Join("..", "..", "examples", "compiler-pass", "laundered.ir")
	err := run([]string{"-lint", laundered}, &buf)
	if err == nil {
		t.Fatalf("laundered fixture passed lint:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"laundered-pointer", "unmasked-external", "-restore-intptr", "spp.cleantag.ext"} {
		if !strings.Contains(out, want) {
			t.Errorf("lint output lacks %q:\n%s", want, out)
		}
	}
}

// TestStatsGolden pins the -stats table for the built-in demo against
// a golden file, so the per-analysis reporting stays stable.
func TestStatsGolden(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-demo", "-q", "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "stats_demo.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("-stats output drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			goldenPath, buf.String(), want)
	}
}
