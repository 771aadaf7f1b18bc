package sched_test

import (
	"strings"
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// killScript drives Env.Kill through the overhead-model corner cases:
// a kill issued while another job's suspension write is still in
// flight, with a pending start claiming the suspending victim's
// processors; and a fresh restart of the killed job.
type killScript struct {
	sched.IgnoreFailures
	env  *sched.Env
	j1   *job.Job // preempted: suspension write in progress at the kill
	j2   *job.Job // killed mid-write of j1, then restarted
	done []*job.Job
}

func (s *killScript) Name() string        { return "killscript" }
func (s *killScript) Init(env *sched.Env) { s.env = env }
func (s *killScript) TickInterval() int64 { return 0 }

func (s *killScript) OnArrival(j *job.Job) {
	switch j.ID {
	case 1:
		s.j1 = j
		s.env.StartFresh(j)
	case 2:
		s.j2 = j
		s.env.StartFresh(j)
	case 3:
		// Preempt j1 for j3: j1 begins its (nonzero) suspension write
		// and j3 holds a pending claim on j1's processor.
		claim := append([]int(nil), s.j1.ProcSet...)
		s.env.PreemptAndStart(j, []*job.Job{s.j1}, claim)
		if s.env.Cluster.Claimant(claim[0]) != j.ID || j.State != job.Queued {
			panic("killscript: j3 should be pending behind j1's write")
		}
		// Race under test: kill j2 while j1 is Suspending. The claim on
		// j1's processor must NOT activate (j1 still owns it), and j2's
		// processor must come back to the free pool immediately.
		s.env.Kill(s.j2)
		if s.env.Cluster.Claimant(claim[0]) != j.ID || j.State != job.Queued {
			panic("killscript: pending claim activated by an unrelated kill")
		}
		// Restart the killed job on the processor the kill freed.
		if !s.env.StartFresh(s.j2) {
			panic("killscript: restart of killed j2 did not fit")
		}
	}
}

func (s *killScript) OnCompletion(j *job.Job) {
	s.done = append(s.done, j)
	// When everything else is done, bring suspended j1 back.
	if s.j1.State == job.Suspended {
		s.env.Resume(s.j1)
	}
}

func (s *killScript) OnSuspendDone(*job.Job) {}
func (s *killScript) OnTick()                {}

func TestKillDuringSuspensionWriteWithPendingClaim(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 4000, 4000, 1),
		job.New(2, 0, 4000, 4000, 1),
		job.New(3, 100, 500, 500, 1),
	}}
	for _, j := range tr.Jobs {
		j.MemPerProc = 64 << 20 // 64 MB image: ~32 s write under the paper's 2 MB/s
	}
	script := &killScript{}
	res, err := sched.RunChecked(tr, script, sched.Options{
		Audit:    true,
		Overhead: overhead.Disk{},
		MaxSteps: 100_000,
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if script.j2.Kills != 1 {
		t.Errorf("j2.Kills = %d, want 1", script.j2.Kills)
	}
	if script.j1.Suspensions != 1 {
		t.Errorf("j1.Suspensions = %d, want 1", script.j1.Suspensions)
	}
	// The kill discarded j2's first segment: with nonzero overhead the
	// checker only demands segments ≥ run time, which the restart met.
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
	// The audit must show j2's kill strictly between j1's suspend-begin
	// and suspend-done (the race window under the disk write model).
	log := res.Audit.String()
	begin := strings.Index(log, "suspend-begin job=1")
	kill := strings.Index(log, "kill job=2")
	done := strings.Index(log, "suspend-done job=1")
	if begin < 0 || kill < 0 || done < 0 || !(begin < kill && kill < done) {
		t.Errorf("kill not inside j1's suspension write window:\n%s", log)
	}
}

// restartScript suspends j1, resumes it, kills it, and restarts it —
// the restart of a previously suspended job must be a fresh start (the
// kill discarded the image), not a resume.
type restartScript struct {
	sched.IgnoreFailures
	env    *sched.Env
	j1     *job.Job
	killed bool
}

func (s *restartScript) Name() string        { return "restartscript" }
func (s *restartScript) Init(env *sched.Env) { s.env = env }
func (s *restartScript) TickInterval() int64 { return 60 }

func (s *restartScript) OnArrival(j *job.Job) {
	switch j.ID {
	case 1:
		s.j1 = j
		s.env.StartFresh(j)
	case 2:
		s.env.PreemptAndStart(j, []*job.Job{s.j1}, append([]int(nil), s.j1.ProcSet...))
	}
}

func (s *restartScript) OnCompletion(j *job.Job) {
	if j.ID == 2 && s.j1.State == job.Suspended {
		s.env.Resume(s.j1)
	}
}

func (s *restartScript) OnSuspendDone(*job.Job) {}

func (s *restartScript) OnTick() {
	if s.killed || s.j1 == nil {
		return
	}
	// Kill j1 on the first tick after its resume.
	if s.j1.State == job.Running && s.j1.Suspensions == 1 {
		s.env.Kill(s.j1)
		s.killed = true
		if !s.env.StartFresh(s.j1) {
			panic("restartscript: restart of killed j1 did not fit")
		}
	}
}

func TestRestartAfterKillOfPreviouslySuspendedJob(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 1, Jobs: []*job.Job{
		job.New(1, 0, 2000, 2000, 1),
		job.New(2, 100, 300, 300, 1),
	}}
	for _, j := range tr.Jobs {
		j.MemPerProc = 64 << 20
	}
	script := &restartScript{}
	res, err := sched.RunChecked(tr, script, sched.Options{
		Audit:    true,
		Overhead: overhead.Disk{},
		MaxSteps: 100_000,
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if !script.killed {
		t.Fatal("script never reached the kill")
	}
	// The checker rejects a resume out of the post-kill queued state, so
	// a clean replay proves the restart was audited as a start.
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
	log := res.Audit.String()
	if kill := strings.Index(log, "kill job=1"); kill < 0 {
		t.Fatalf("no kill of j1 in audit:\n%s", log)
	} else if rest := strings.Index(log[kill:], "start job=1"); rest < 0 {
		t.Errorf("no fresh start of j1 after its kill:\n%s", log)
	}
}
