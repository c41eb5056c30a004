package preempt

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseTriggers: no spec makes ParseTriggers panic; a successful parse
// arms only built-in triggers, each at most once; and re-parsing the
// "+"-joined names of the result yields the same trigger list. Seeds live
// in testdata/fuzz/FuzzParseTriggers.
func FuzzParseTriggers(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ts, _, err := ParseTriggers(spec)
		if err != nil {
			return
		}
		names := make([]string, len(ts))
		for i, tr := range ts {
			names[i] = tr.Name()
			if !slices.Contains(Triggers(), names[i]) {
				t.Fatalf("spec %q armed unknown trigger %q", spec, names[i])
			}
			if slices.Contains(names[:i], names[i]) {
				t.Fatalf("spec %q armed %q twice", spec, names[i])
			}
		}
		again, _, err := ParseTriggers(strings.Join(names, "+"))
		if err != nil {
			t.Fatalf("spec %q: re-parsing %v: %v", spec, names, err)
		}
		if len(again) != len(ts) {
			t.Fatalf("spec %q: re-parse armed %d triggers, want %d", spec, len(again), len(ts))
		}
		for i := range again {
			if again[i].Name() != names[i] {
				t.Fatalf("spec %q: re-parse armed %q at %d, want %q", spec, again[i].Name(), i, names[i])
			}
		}
	})
}
