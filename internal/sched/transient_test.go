package sched_test

import (
	"strings"
	"testing"

	"pjs/internal/check"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// transientScript drives the transient-I/O retry machinery through a
// deterministic preemption: j1 starts, j2 preempts it (suspend write),
// j1 resumes after j2 completes (restart read). Jobs displaced by an
// exhausted retry sequence are restarted as soon as they fit again.
type transientScript struct {
	env *sched.Env
	j1  *job.Job
}

func (s *transientScript) Name() string        { return "transientscript" }
func (s *transientScript) Init(env *sched.Env) { s.env = env }
func (s *transientScript) TickInterval() int64 { return 60 }

func (s *transientScript) OnArrival(j *job.Job) {
	switch j.ID {
	case 1:
		s.j1 = j
		s.env.StartFresh(j)
	case 2:
		s.env.PreemptAndStart(j, []*job.Job{s.j1}, append([]int(nil), s.j1.ProcSet...))
	}
}

func (s *transientScript) OnCompletion(*job.Job) {
	if s.j1.State == job.Suspended {
		s.env.Resume(s.j1)
	}
	s.restartQueued()
}

func (s *transientScript) OnSuspendDone(*job.Job) {}
func (s *transientScript) OnTick()                { s.restartQueued() }

func (s *transientScript) OnFailure(int, []*job.Job) { s.restartQueued() }
func (s *transientScript) OnRepair(int)              {}

// restartQueued retries a fresh start for a kill-requeued j1.
func (s *transientScript) restartQueued() {
	if s.j1 != nil && s.j1.State == job.Queued {
		s.env.StartFresh(s.j1)
	}
}

// transientTrace is the two-job, one-processor workload under the disk
// overhead model: 64 MB images take ~32 s to write or read.
func transientTrace() *workload.Trace {
	tr := &workload.Trace{Name: "t", Procs: 1, Jobs: []*job.Job{
		job.New(1, 0, 2000, 2000, 1),
		job.New(2, 100, 300, 300, 1),
	}}
	for _, j := range tr.Jobs {
		j.MemPerProc = 64 << 20
	}
	return tr
}

func runTransientScript(t *testing.T, cfg fault.TransientConfig) (*sched.Result, *transientScript) {
	t.Helper()
	script := &transientScript{}
	res, err := sched.RunChecked(transientTrace(), script, sched.Options{
		Audit:     true,
		Overhead:  overhead.Disk{},
		MaxSteps:  100_000,
		Transient: cfg,
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
	return res, script
}

// TestTransientSuccessOnExactlyFinalAttempt forces the suspend write to
// fail on every attempt but the last allowed one: with MaxAttempts 4
// and the first 3 draws rigged to fail, attempt 4 must succeed — no
// exhaustion, no kill, no resubmission, exactly 3 retries.
func TestTransientSuccessOnExactlyFinalAttempt(t *testing.T) {
	res, script := runTransientScript(t, fault.TransientConfig{FailFirst: 3, Seed: 1})
	if res.IORetries != 3 {
		t.Errorf("IORetries = %d, want 3", res.IORetries)
	}
	if res.IOExhaustions != 0 {
		t.Errorf("IOExhaustions = %d, want 0", res.IOExhaustions)
	}
	if script.j1.Resubmits != 0 {
		t.Errorf("j1.Resubmits = %d, want 0", script.j1.Resubmits)
	}
	if script.j1.Suspensions != 1 {
		t.Errorf("j1.Suspensions = %d, want 1", script.j1.Suspensions)
	}
	log := res.Audit.String()
	if strings.Count(log, "io-retry job=1") != 3 {
		t.Errorf("want 3 io-retry entries for j1:\n%s", log)
	}
	if strings.Contains(log, "io-exhausted") {
		t.Errorf("unexpected io-exhausted entry:\n%s", log)
	}
}

// TestTransientWriteExhaustionKillsAndRequeues rigs the first 4 draws
// to fail: the suspend write reaches the attempt cap exactly, the job
// is killed out of its Suspending state and requeued, and — the fault
// stream now exhausted — its fresh restart completes the run.
func TestTransientWriteExhaustionKillsAndRequeues(t *testing.T) {
	res, script := runTransientScript(t, fault.TransientConfig{FailFirst: 4, Seed: 1})
	if res.IORetries != 3 {
		t.Errorf("IORetries = %d, want 3", res.IORetries)
	}
	if res.IOExhaustions != 1 {
		t.Errorf("IOExhaustions = %d, want 1", res.IOExhaustions)
	}
	if script.j1.Resubmits != 1 {
		t.Errorf("j1.Resubmits = %d, want 1", script.j1.Resubmits)
	}
	if res.LostWorkSeconds <= 0 {
		t.Errorf("LostWorkSeconds = %d, want > 0 (the kill discarded work)", res.LostWorkSeconds)
	}
	log := res.Audit.String()
	exh := strings.Index(log, "io-exhausted job=1")
	kill := strings.Index(log, "kill job=1")
	restart := strings.LastIndex(log, "start job=1")
	if exh < 0 || kill < 0 || restart < 0 || !(exh < kill && kill < restart) {
		t.Errorf("want io-exhausted then kill then fresh restart of j1:\n%s", log)
	}
}

// TestTransientReadExhaustionKillsFromRunning fails every restart read
// (probability 1) with a 3-attempt cap: the resumed job retries twice,
// exhausts, and is killed out of its Running state; the fresh restart
// needs no image read and completes.
func TestTransientReadExhaustionKillsFromRunning(t *testing.T) {
	res, script := runTransientScript(t, fault.TransientConfig{ReadFailProb: 1, Seed: 1, MaxAttempts: 3})
	if res.IORetries != 2 {
		t.Errorf("IORetries = %d, want 2", res.IORetries)
	}
	if res.IOExhaustions != 1 {
		t.Errorf("IOExhaustions = %d, want 1", res.IOExhaustions)
	}
	if script.j1.Resubmits != 1 {
		t.Errorf("j1.Resubmits = %d, want 1", script.j1.Resubmits)
	}
	log := res.Audit.String()
	resume := strings.Index(log, "resume job=1")
	exh := strings.Index(log, "io-exhausted job=1")
	kill := strings.Index(log, "kill job=1")
	if resume < 0 || exh < 0 || kill < 0 || !(resume < exh && exh < kill) {
		t.Errorf("want resume then io-exhausted then kill of j1:\n%s", log)
	}
}

// TestTransientStreamExhaustedMidRetry rigs exactly one failing draw:
// the first write attempt fails, the forced-failure stream is then
// exhausted, and the very next retry succeeds — one retry, nothing
// else.
func TestTransientStreamExhaustedMidRetry(t *testing.T) {
	res, script := runTransientScript(t, fault.TransientConfig{FailFirst: 1, Seed: 1})
	if res.IORetries != 1 {
		t.Errorf("IORetries = %d, want 1", res.IORetries)
	}
	if res.IOExhaustions != 0 || script.j1.Resubmits != 0 {
		t.Errorf("IOExhaustions = %d, Resubmits = %d, want 0/0",
			res.IOExhaustions, script.j1.Resubmits)
	}
}

// TestTransientDisabledMatchesBaseline is the no-fault byte-identity
// guarantee at the driver level: the zero TransientConfig must produce
// an audit log byte-identical to a run without the feature wired at
// all (same Options minus the field).
func TestTransientDisabledMatchesBaseline(t *testing.T) {
	run := func(opt sched.Options) string {
		res, err := sched.RunChecked(transientTrace(), &transientScript{}, opt)
		if err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		return res.Audit.String()
	}
	base := sched.Options{Audit: true, Overhead: overhead.Disk{}, MaxSteps: 100_000}
	withZero := base
	withZero.Transient = fault.TransientConfig{}
	if a, b := run(base), run(withZero); a != b {
		t.Errorf("zero TransientConfig changed the audit log:\n%s", firstDiff(a, b))
	}
}

// firstDiff renders the first differing line of two logs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "logs diverge only in length"
}

// TestIORestoredFollowsDegraded runs SS:2 under transient I/O faults
// with a finite health window, so processors degraded by a failure are
// restored once the window passes: every io-restored entry must follow
// an io-degraded entry for the same processor, the IORestores tally
// must count them, and the checker must accept the log.
func TestIORestoredFollowsDegraded(t *testing.T) {
	res, err := sched.RunChecked(smallTrace(1, 300), ss.New(ss.Config{SF: 2}), sched.Options{
		Audit:    true,
		Overhead: overhead.Disk{},
		MaxSteps: 5_000_000,
		Transient: fault.TransientConfig{
			WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
			HealthWindow: 3600, HealthThreshold: 1,
		},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	degraded := map[int]bool{}
	restored := 0
	for _, e := range res.Audit.Entries {
		switch e.Action {
		case sched.ActIODegraded:
			degraded[e.Procs[0]] = true
		case sched.ActIORestored:
			p := e.Procs[0]
			if !degraded[p] {
				t.Errorf("t=%d: io-restored of processor %d without a preceding io-degraded", e.Time, p)
			}
			degraded[p] = false
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("no io-restored entry: the run never cleared a degraded processor")
	}
	if res.IORestores != restored {
		t.Errorf("IORestores = %d, want %d io-restored entries", res.IORestores, restored)
	}
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
}
