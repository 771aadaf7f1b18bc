package policy

import (
	"strconv"
	"testing"
)

func TestGrammar(t *testing.T) {
	const want = "fcfs|conservative|ns|is|ss[:SF]|tss[:SF]|ssmig[:SF]|gang[:Q]|spec[:F]|depth[:N]"
	if got := Grammar(); got != want {
		t.Errorf("Grammar() = %q, want %q", got, want)
	}
}

// TestRowsParse resolves every row's canonical spec, name and aliases
// to the row, and checks that each default is an argument the row
// accepts when given explicitly.
func TestRowsParse(t *testing.T) {
	for _, p := range All {
		for _, spec := range append([]string{p.Spec, p.Name}, p.Aliases...) {
			got, _, err := Parse(spec)
			if err != nil || got != p {
				t.Errorf("Parse(%q) = %v, %v; want row %s", spec, got, err, p.Name)
			}
		}
		if p.Arg.Kind == NoArg {
			continue
		}
		def := strconv.FormatFloat(p.Arg.Default, 'g', -1, 64)
		if _, v, err := Parse(p.Name + ":" + def); err != nil || v != p.Arg.Default {
			t.Errorf("%s: explicit default %s = %v, %v", p.Name, def, v, err)
		}
	}
}
