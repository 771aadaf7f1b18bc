package pjs_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/job"
	"pjs/internal/sched"
)

// fmtAuditLog is the fmt rendering AuditLog.String replaced, kept as
// the reference its bytes must equal.
func fmtAuditLog(l *sched.AuditLog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d entries=%d\n", l.Procs, len(l.Entries))
	for _, e := range l.Entries {
		fmt.Fprintf(&b, "t=%d %s job=%d width=%d run=%d submit=%d set=%v\n",
			e.Time, e.Action, e.JobID, e.Width, e.RunTime, e.Submit, e.Procs)
	}
	return b.String()
}

// goldenRun simulates the golden trace under spec and mode with an
// audit log; wrap, if set, wraps the policy.
func goldenRun(t *testing.T, trace *pjs.Trace, spec string, faults pjs.FaultConfig, transient pjs.TransientFaultConfig,
	wrap func(pjs.Scheduler) pjs.Scheduler) *pjs.Result {
	t.Helper()
	s, err := pjs.NewScheduler(spec)
	if err != nil {
		t.Fatalf("NewScheduler(%q): %v", spec, err)
	}
	if wrap != nil {
		s = wrap(s)
	}
	opt := pjs.DiskOverhead()
	opt.Audit = true
	opt.MaxSteps = 50_000_000
	opt.Faults = faults
	opt.Transient = transient
	res, err := pjs.SimulateChecked(trace, s, opt)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return res
}

// failAfter is a writer that accepts n bytes, then fails.
type failAfter struct{ n int }

var errFull = errors.New("full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		m := w.n
		w.n = 0
		return m, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestAuditRenderMatchesFmt compares String and WriteTo with the fmt
// rendering for every registry policy and fault mode, and checks that
// WriteTo reports a failed write with the bytes written before it.
func TestAuditRenderMatchesFmt(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range goldenModes {
			key := spec + "/" + mode.name
			t.Run(key, func(t *testing.T) {
				log := goldenRun(t, trace, spec, mode.faults, mode.transient, nil).Audit
				want := fmtAuditLog(log)
				if got := log.String(); got != want {
					t.Fatalf("String differs from the fmt rendering (%d vs %d bytes)", len(got), len(want))
				}
				var b bytes.Buffer
				if n, err := log.WriteTo(&b); err != nil || n != int64(len(want)) || b.String() != want {
					t.Fatalf("WriteTo = %d, %v; %d bytes equal to the fmt rendering: %v", n, err, len(want), b.String() == want)
				}
				w := &failAfter{n: len(want) / 2}
				if n, err := log.WriteTo(w); !errors.Is(err, errFull) || n != int64(len(want)/2) {
					t.Fatalf("WriteTo into a writer full after %d bytes = %d, %v", len(want)/2, n, err)
				}
			})
		}
	}
	if got, want := (&sched.AuditLog{Procs: 3}).String(), "procs=3 entries=0\n"; got != want {
		t.Fatalf("empty log renders %q, want %q", got, want)
	}
}

// TestAuditEntryProcsCapped appends to every entry's processor set in
// turn: the entries share one slab, so an uncapped view would let the
// append overwrite the next entry's set.
func TestAuditEntryProcsCapped(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	log := goldenRun(t, trace, "ss:2", pjs.FaultConfig{}, pjs.TransientFaultConfig{}, nil).Audit
	want := log.String()
	for i := range log.Entries {
		_ = append(log.Entries[i].Procs, -1)
	}
	if log.String() != want {
		t.Fatal("appending to an entry's Procs changed the log")
	}
}

// clobberRequeued forwards every hook and, once OnFailure returns,
// overwrites the displaced-job slice with nils: a policy that kept the
// slice past the call would read them later.
type clobberRequeued struct{ pjs.Scheduler }

func (c clobberRequeued) OnFailure(p int, requeued []*job.Job) {
	c.Scheduler.OnFailure(p, requeued)
	clear(requeued)
}

// TestOnFailureSliceNotRetained runs every registry policy under
// processor faults, plain and with OnFailure's slice overwritten after
// each call: the audit logs must be equal.
func TestOnFailureSliceNotRetained(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range goldenModes {
			if mode.faults == (pjs.FaultConfig{}) {
				continue
			}
			key := spec + "/" + mode.name
			t.Run(key, func(t *testing.T) {
				plain := goldenRun(t, trace, spec, mode.faults, mode.transient, nil)
				clobbered := goldenRun(t, trace, spec, mode.faults, mode.transient,
					func(s pjs.Scheduler) pjs.Scheduler { return clobberRequeued{s} })
				if plain.Failures == 0 {
					t.Fatal("no processor failed")
				}
				if plain.Audit.String() != clobbered.Audit.String() {
					t.Fatal("overwriting OnFailure's slice after the call changed the audit log")
				}
			})
		}
	}
}
