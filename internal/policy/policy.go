// Package policy is the one table of scheduling policies: a row per
// family with its spec name, aliases, argument rule, canonical spec,
// figure label, one-line doc and constructor. pjs.NewScheduler,
// pjs.SchedulerSpecs, psim's -sched help and the experiment schemes all
// read it. Adding a policy is adding a row to All, plus the golden
// digests of its canonical spec (golden_test.go).
package policy

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/easy"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/gang"
	"pjs/internal/sched/is"
	"pjs/internal/sched/speculative"
	"pjs/internal/sched/ss"
)

// ArgKind is the kind of argument a "name:ARG" spec carries.
type ArgKind uint8

// Argument kinds.
const (
	NoArg ArgKind = iota
	Float
	Int
)

// Arg is a policy's argument rule.
type Arg struct {
	Kind      ArgKind
	Sym, What string  // symbol in the grammar ("SF") and name in errors
	Default   float64 // the argument of a spec without one
	Min       float64 // least valid argument
	Open      bool    // Min itself is invalid
}

// Policy is one row of the table.
type Policy struct {
	Name, Spec, Doc string // spec name, canonical spec, one-line doc
	Aliases         []string
	Arg             Arg
	label           string // figure label: a Float argument fills %g, an Int one %d
	New             func(arg float64) sched.Scheduler
}

var suspensionFactor = Arg{Kind: Float, Sym: "SF", What: "suspension factor", Default: 2, Min: 1}

// The rows, one per policy family.
var (
	FCFS = &Policy{Name: "fcfs", Spec: "fcfs", Doc: "first-come-first-served", label: "FCFS",
		New: func(float64) sched.Scheduler { return fcfs.New() }}
	Conservative = &Policy{Name: "conservative", Spec: "conservative", Doc: "conservative backfilling", label: "Conservative",
		Aliases: []string{"cons"}, New: func(float64) sched.Scheduler { return conservative.New() }}
	NS = &Policy{Name: "ns", Spec: "ns", Doc: "aggressive (EASY) backfilling, the paper's NS baseline", label: "No Suspension",
		Aliases: []string{"easy", "aggressive"}, New: func(float64) sched.Scheduler { return easy.New() }}
	IS = &Policy{Name: "is", Spec: "is", Doc: "Immediate Service (Chiang & Vernon)", label: "IS",
		New: func(float64) sched.Scheduler { return is.New() }}
	SS = &Policy{Name: "ss", Spec: "ss:2", Doc: "Selective Suspension", label: "SF = %g", Arg: suspensionFactor,
		New: func(sf float64) sched.Scheduler { return ss.New(ss.Config{SF: sf}) }}
	TSS = &Policy{Name: "tss", Spec: "tss:2", label: "SF = %g Adaptive", Arg: suspensionFactor,
		Doc: `single-pass Tunable SS with online-adaptive limits (the paper's two-pass TSS is pexp's "SF = 2 Tuned")`,
		New: func(sf float64) sched.Scheduler { return ss.New(ss.Config{SF: sf, Limits: &ss.AdaptiveLimits{}}) }}
	SSMig = &Policy{Name: "ssmig", Spec: "ssmig:2", Doc: "SS under the migratable-restart model (ablation)",
		label: "SF = %g Migratable", Arg: suspensionFactor, Aliases: []string{"ss-mig"},
		New: func(sf float64) sched.Scheduler { return ss.New(ss.Config{SF: sf, Migration: true}) }}
	Gang = &Policy{Name: "gang", Spec: "gang", Doc: "gang scheduling with a quantum of Q seconds", label: "Gang Q=%ds",
		Arg: Arg{Kind: Int, Sym: "Q", What: "gang quantum", Default: gang.DefaultQuantum, Min: 1},
		New: func(q float64) sched.Scheduler { return gang.New(gang.Config{Quantum: int64(q)}) }}
	SpecBF = &Policy{Name: "spec", Spec: "spec", label: "SpecBF F=%g", Aliases: []string{"specbf"},
		Doc: "speculative backfilling: gamble when estimate ≤ F × hole, kill & requeue on a loss",
		Arg: Arg{Kind: Float, Sym: "F", What: "speculation factor", Default: speculative.DefaultFactor, Min: 1, Open: true},
		New: func(f float64) sched.Scheduler { return speculative.New(speculative.Config{SpecFactor: f}) }}
	DepthBF = &Policy{Name: "depth", Spec: "depth:2", Doc: "reservation-depth backfilling, N reservations (1 = EASY)",
		label: "Depth %d", Aliases: []string{"depthbf"}, Arg: Arg{Kind: Int, Sym: "N", What: "reservation depth", Default: 1, Min: 1},
		New: func(n float64) sched.Scheduler { return depthbf.New(int(n)) }}
)

// All is the table in canonical order.
var All = []*Policy{FCFS, Conservative, NS, IS, SS, TSS, SSMig, Gang, SpecBF, DepthBF}

// Label is p's figure label for argument arg, e.g. "SF = 2".
func (p *Policy) Label(arg float64) string {
	if p.Arg.Kind == NoArg {
		return p.label
	}
	if p.Arg.Kind == Int {
		return fmt.Sprintf(p.label, int64(arg))
	}
	return fmt.Sprintf(p.label, arg)
}

// Parse resolves a spec "name" or "name:ARG" (case-insensitive,
// surrounding space ignored) to its policy and validated argument.
func Parse(spec string) (*Policy, float64, error) {
	name, s, hasArg := strings.Cut(strings.TrimSpace(strings.ToLower(spec)), ":")
	i := slices.IndexFunc(All, func(p *Policy) bool { return p.Name == name || slices.Contains(p.Aliases, name) })
	if i < 0 {
		return nil, 0, fmt.Errorf("unknown scheduler %q (want %s)", spec, Grammar())
	}
	p, r := All[i], All[i].Arg
	if !hasArg {
		return p, r.Default, nil
	}
	if r.Kind == NoArg {
		return nil, 0, fmt.Errorf("%s takes no argument, got %q", p.Name, spec)
	}
	v, err := strconv.ParseFloat(s, 64)
	if r.Kind == Int {
		var n int64
		n, err = strconv.ParseInt(s, 10, 54) // |n| ≤ 2^53 converts exactly
		v = float64(n)
	}
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, 0, fmt.Errorf("bad %s %q in %q", r.What, s, spec)
	}
	if v < r.Min || r.Open && v == r.Min {
		return nil, 0, fmt.Errorf("%s %v must be %s", r.What, v, r.bound())
	}
	return p, v, nil
}

// bound renders the argument's lower bound, e.g. "≥ 1".
func (r Arg) bound() string {
	if r.Open {
		return fmt.Sprintf("> %g", r.Min)
	}
	return fmt.Sprintf("≥ %g", r.Min)
}

// form is p's spec form in the grammar, e.g. "ss[:SF]".
func (p *Policy) form() string {
	if p.Arg.Kind == NoArg {
		return p.Name
	}
	return p.Name + "[:" + p.Arg.Sym + "]"
}

// Grammar lists every spec form, e.g. "fcfs|conservative|...|depth[:N]".
func Grammar() string {
	forms := make([]string, len(All))
	for i, p := range All {
		forms[i] = p.form()
	}
	return strings.Join(forms, "|")
}

// Usage renders one line per policy: its spec form, doc, argument rule
// and aliases.
func Usage() string {
	lines := make([]string, len(All))
	for i, p := range All {
		lines[i] = fmt.Sprintf("%-14s%s", p.form(), p.Doc)
		if r := p.Arg; r.Kind != NoArg {
			lines[i] += fmt.Sprintf("; %s %s, default %g", r.Sym, r.bound(), r.Default)
		}
		if len(p.Aliases) > 0 {
			lines[i] += "; also " + strings.Join(p.Aliases, ", ")
		}
	}
	return strings.Join(lines, "\n")
}
