package sched_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

func lifecycleTrace(jobs int) *workload.Trace {
	return workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: jobs, Seed: 11})
}

func newSS() sched.Scheduler { return ss.New(ss.Config{SF: 2}) }

// lineObserver records one line per observed event, for suffix
// comparison between full and resumed runs.
type lineObserver struct {
	lines []string
}

func (o *lineObserver) Observe(ev sched.Event) {
	id := -1
	if ev.Job != nil {
		id = ev.Job.ID
	}
	o.lines = append(o.lines, fmt.Sprintf("t=%d %s job=%d set=%v busy=%d", ev.Time, ev.Action, id, ev.Procs, ev.Busy))
}

// TestCheckpointResumeByteIdentical is the core crash-equivalence
// property at the driver level: resume from every periodic watermark of
// a reference run and require the byte-identical audit log, and an
// observer stream that is exactly the reference's suffix (history is
// muted, the continuation is not).
func TestCheckpointResumeByteIdentical(t *testing.T) {
	tr := lifecycleTrace(80)
	var snaps []sched.Snapshot
	refObs := &lineObserver{}
	opt := sched.Options{
		Audit:    true,
		Overhead: overhead.Disk{},
		Observer: refObs,
		Checkpoint: &sched.CheckpointConfig{
			Every: 100,
			Save:  func(s sched.Snapshot) error { snaps = append(snaps, s); return nil },
		},
	}
	ref, err := sched.RunChecked(tr, newSS(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoints were taken")
	}
	want := ref.Audit.String()
	for _, snap := range snaps {
		resObs := &lineObserver{}
		res, err := sched.RunChecked(tr, newSS(), sched.Options{
			Audit:    true,
			Overhead: overhead.Disk{},
			Observer: resObs,
			Resume:   &snap,
		})
		if err != nil {
			t.Fatalf("resume from event %d: %v", snap.Events, err)
		}
		if got := res.Audit.String(); got != want {
			t.Fatalf("resume from event %d: audit log differs from uninterrupted run", snap.Events)
		}
		// The resumed observer stream must be a proper suffix of the
		// reference stream: nothing replayed, nothing missing.
		if len(resObs.lines) >= len(refObs.lines) {
			t.Fatalf("resume from event %d: observer saw %d events, reference saw %d — history not muted",
				snap.Events, len(resObs.lines), len(refObs.lines))
		}
		suffix := refObs.lines[len(refObs.lines)-len(resObs.lines):]
		for i := range resObs.lines {
			if resObs.lines[i] != suffix[i] {
				t.Fatalf("resume from event %d: observer line %d = %q, reference suffix has %q",
					snap.Events, i, resObs.lines[i], suffix[i])
			}
		}
	}
}

func TestResumeRejectsWrongHash(t *testing.T) {
	tr := lifecycleTrace(40)
	var snaps []sched.Snapshot
	_, err := sched.RunChecked(tr, newSS(), sched.Options{
		Checkpoint: &sched.CheckpointConfig{
			Every: 100,
			Save:  func(s sched.Snapshot) error { snaps = append(snaps, s); return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoints were taken")
	}
	bad := snaps[0]
	bad.AuditHash ^= 1 // a stale or foreign checkpoint hashes differently
	_, err = sched.RunChecked(tr, newSS(), sched.Options{
		Resume: &bad,
	})
	if !errors.Is(err, sched.ErrCheckpointMismatch) {
		t.Fatalf("corrupted watermark hash: err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestResumeRejectsWatermarkBeyondEnd(t *testing.T) {
	tr := lifecycleTrace(20)
	_, err := sched.RunChecked(tr, newSS(), sched.Options{
		Resume: &sched.Snapshot{Events: 1 << 40},
	})
	if !errors.Is(err, sched.ErrCheckpointMismatch) {
		t.Fatalf("watermark beyond run end: err = %v, want ErrCheckpointMismatch", err)
	}
	if err == nil || !strings.Contains(err.Error(), "short of the checkpoint watermark") {
		t.Errorf("error should say the run ended short of the watermark: %v", err)
	}
}

func TestCheckpointSaveErrorStopsRun(t *testing.T) {
	tr := lifecycleTrace(40)
	boom := errors.New("disk full")
	_, err := sched.RunChecked(tr, newSS(), sched.Options{
		Checkpoint: &sched.CheckpointConfig{
			Every: 10,
			Save:  func(sched.Snapshot) error { return boom },
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("save failure: err = %v, want the save error", err)
	}
	if !strings.Contains(err.Error(), "checkpoint save at event") {
		t.Errorf("error should locate the failed save: %v", err)
	}
}

func TestCanceledRunReturnsInterruptedError(t *testing.T) {
	tr := lifecycleTrace(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	saves := 0
	_, err := sched.RunContext(ctx, tr, newSS(), sched.Options{
		Checkpoint: &sched.CheckpointConfig{
			Every: 1000,
			Save:  func(sched.Snapshot) error { saves++; return nil },
		},
	})
	var ie *sched.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("canceled run: err = %v, want *InterruptedError", err)
	}
	if !errors.Is(err, sched.ErrInterrupted) || !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("interrupt error chain incomplete: %v", err)
	}
	if saves != 1 {
		t.Errorf("final checkpoint saved %d times, want 1", saves)
	}
	if ie.Snapshot.Events != 0 {
		t.Errorf("pre-canceled run processed %d events, want 0", ie.Snapshot.Events)
	}
}

func TestCanceledRunWithoutCheckpoint(t *testing.T) {
	tr := lifecycleTrace(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sched.RunContext(ctx, tr, newSS(), sched.Options{})
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want sim.ErrCanceled wrapping context.Canceled", err)
	}
	var ie *sched.InterruptedError
	if errors.As(err, &ie) {
		t.Error("no checkpoint configured, yet the run claims one was saved")
	}
}

// explodingSched panics on its third arrival — mid-run, with state on
// the machine, so the postmortem has something to show.
type explodingSched struct {
	sched.Scheduler
	arrivals int
}

func (s *explodingSched) Name() string { return "exploding" }
func (s *explodingSched) OnArrival(j *job.Job) {
	s.arrivals++
	if s.arrivals == 3 {
		panic("policy exploded")
	}
	s.Scheduler.OnArrival(j)
}

func TestPanicBecomesPanicErrorWithPostmortem(t *testing.T) {
	tr := lifecycleTrace(10)
	boom := &explodingSched{Scheduler: newSS()}
	_, err := sched.RunChecked(tr, boom, sched.Options{MaxSteps: 10000})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking policy: err = %v, want *PanicError", err)
	}
	if pe.Value != "policy exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	for _, want := range []string{"t=", "queued", "processors up"} {
		if !strings.Contains(pe.Postmortem, want) {
			t.Errorf("postmortem missing %q:\n%s", want, pe.Postmortem)
		}
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
}
