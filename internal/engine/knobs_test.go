package engine

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRegisterFlagsCoversEveryKnob walks Knobs with reflection: every
// field must have a flag in knobFlags, the flag must be registered,
// and setting the flag must change that field (so a renamed field
// can't leave a stale mapping behind).
func TestRegisterFlagsCoversEveryKnob(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	k := RegisterFlags(fs)

	typ := reflect.TypeOf(Knobs{})
	if len(knobFlags) != typ.NumField() {
		t.Errorf("knobFlags has %d entries, Knobs has %d fields", len(knobFlags), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		name, ok := knobFlags[field.Name]
		if !ok {
			t.Errorf("Knobs.%s has no entry in knobFlags", field.Name)
			continue
		}
		if fs.Lookup(name) == nil {
			t.Errorf("Knobs.%s: flag -%s not registered", field.Name, name)
			continue
		}
		var sample string
		switch field.Type.Kind() {
		case reflect.Bool:
			sample = "true"
		default:
			sample = fmt.Sprintf("%d", i+2)
		}
		if err := fs.Set(name, sample); err != nil {
			t.Errorf("Knobs.%s: set -%s=%s: %v", field.Name, name, sample, err)
			continue
		}
		got := reflect.ValueOf(*k).Field(i)
		if got.IsZero() {
			t.Errorf("Knobs.%s: flag -%s did not populate the field", field.Name, name)
		}
	}
}

// TestReadmeListsEveryKnobFlag keeps README's engine-flag table (the
// `| flag | effect |` table) equal to knobFlags: a flag added, renamed
// or removed here must be documented there, and the table may list
// nothing else.
func TestReadmeListsEveryKnobFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readme), "\n")
	start := slices.Index(lines, "| flag | effect |")
	if start < 0 {
		t.Fatal("README has no `| flag | effect |` table")
	}
	var documented []string
	for _, line := range lines[start+2:] {
		if !strings.HasPrefix(line, "| `-") {
			break
		}
		cell := strings.TrimPrefix(line, "| `-")
		cell = cell[:strings.IndexByte(cell, '`')]
		documented = append(documented, strings.Fields(cell)[0])
	}
	var want []string
	for _, name := range knobFlags {
		want = append(want, name)
	}
	slices.Sort(documented)
	slices.Sort(want)
	if !slices.Equal(documented, want) {
		t.Errorf("README engine-flag table lists %v, knobFlags has %v", documented, want)
	}
}
