package easy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// refSched is EASY as it was before the one-pass scan: every hook runs
// refSchedule, which goes back to the head after each backfill start and
// rescans the queue from index 1. It keeps a queue of its own in
// (submit, ID) order instead of reading the driver's, and reads each
// job's width from the job, so a driver queue out of order or widths
// out of step with it show as a difference too.
type refSched struct {
	*Sched
	queue []*job.Job
	// resumes counts the rescans after a backfill start that met the
	// head's reservation at the same shadow time with no more extra
	// processors, so a one-pass scan may go on where it stopped;
	// restarts counts the others.
	resumes, restarts int
}

func (r *refSched) OnArrival(j *job.Job) {
	r.queue = insertBySubmit(r.queue, j)
	r.refSchedule()
}

func (r *refSched) OnCompletion(j *job.Job) {
	r.running.Remove(j, j.ProjectedEnd())
	r.refSchedule()
}

func (r *refSched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		r.running.Remove(j, j.ProjectedEnd())
		if !slices.Contains(r.queue, j) {
			r.queue = insertBySubmit(r.queue, j)
		}
	}
	r.refSchedule()
}

func (r *refSched) OnRepair(int) { r.refSchedule() }

// insertBySubmit inserts j into queue before the first job that comes
// after it in (submit time, ID) order.
func insertBySubmit(queue []*job.Job, j *job.Job) []*job.Job {
	i := 0
	for i < len(queue) && (queue[i].SubmitTime < j.SubmitTime ||
		queue[i].SubmitTime == j.SubmitTime && queue[i].ID < j.ID) {
		i++
	}
	return slices.Insert(queue, i, j)
}

// refSchedule starts queue heads while they fit, then backfills the
// first eligible job and recomputes everything.
func (r *refSched) refSchedule() {
	cl := r.env.Cluster
	for {
		for len(r.queue) > 0 && r.start(r.queue[0]) {
			r.queue = r.queue[1:]
		}
		if len(r.queue) == 0 || cl.FreeUnclaimed() == 0 {
			return
		}
		shadow, extra := r.running.Shadow(cl.FreeUnclaimed(), r.queue[0].Procs)
		started := false
		now := r.env.Now()
		for i := 1; i < len(r.queue); i++ {
			j := r.queue[i]
			if j.Procs <= cl.FreeUnclaimed() && (now+j.Estimate <= shadow || j.Procs <= extra) && r.start(j) {
				r.queue = append(r.queue[:i], r.queue[i+1:]...)
				started = true
				break
			}
		}
		if !started {
			return
		}
		if len(r.queue) > 0 && cl.FreeUnclaimed() > 0 {
			if next, nextExtra := r.running.Shadow(cl.FreeUnclaimed(), r.queue[0].Procs); next != shadow || nextExtra > extra {
				r.restarts++
			} else {
				r.resumes++
			}
		}
	}
}

// hookRecord is the state a hook left behind: the queue order, and the
// running jobs with the processors they hold, so it shows both which
// jobs a pass started and where.
type hookRecord struct {
	now     int64
	hook    string
	queued  int
	running int
	digest  uint64
}

// recorder wraps a scheduler whose release list is s's and whose queue
// is queue's, and records a hookRecord after every hook that schedules.
type recorder struct {
	sched.Scheduler
	s     *Sched
	queue func() []*job.Job
	log   []hookRecord
}

func (r *recorder) OnArrival(j *job.Job)    { r.Scheduler.OnArrival(j); r.record("arrival") }
func (r *recorder) OnCompletion(j *job.Job) { r.Scheduler.OnCompletion(j); r.record("completion") }
func (r *recorder) OnRepair(p int)          { r.Scheduler.OnRepair(p); r.record("repair") }
func (r *recorder) OnFailure(p int, requeued []*job.Job) {
	r.Scheduler.OnFailure(p, requeued)
	r.record("failure")
}

func (r *recorder) record(hook string) {
	h := fnv.New64a()
	queue := r.queue()
	for _, j := range queue {
		fmt.Fprint(h, j.ID, " ")
	}
	fmt.Fprint(h, "| ")
	for i := 0; i < r.s.running.Len(); i++ {
		j, end := r.s.running.At(i)
		fmt.Fprint(h, j.ID, "@", end, j.ProcSet, " ")
	}
	r.log = append(r.log, hookRecord{
		now: r.s.env.Now(), hook: hook,
		queued: len(queue), running: r.s.running.Len(), digest: h.Sum64(),
	})
}

// comparePasses runs tr under EASY and under refSched with the same
// options and fails t at the first hook after which the two differ. It
// returns the reference, whose counts say which rescans the trace made.
func comparePasses(t testing.TB, tr *workload.Trace, opt sched.Options) *refSched {
	t.Helper()
	run := func(s sched.Scheduler, inner *Sched, queue func() []*job.Job) []hookRecord {
		rec := &recorder{Scheduler: s, s: inner, queue: queue}
		_, err := sched.RunChecked(tr, rec, opt)
		if errors.Is(err, sim.ErrMaxSteps) {
			t.Fatalf("run did not finish within %d steps", opt.MaxSteps)
		}
		if err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		return rec.log
	}
	s := New()
	got := run(s, s, func() []*job.Job { return s.env.Idle() })
	ref := &refSched{Sched: New()}
	want := run(ref, ref.Sched, func() []*job.Job { return ref.queue })
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("hook %d differs:\n one pass:  %+v\n reference: %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d hooks with the one-pass scan, %d with the reference", len(got), len(want))
	}
	return ref
}

// tieTrace is the smallest case that needs the restart: jobs 1 and 2
// end together at the head's shadow time (600), and the walk stops at
// job 1. Job 5 backfills to end at 600 as well; it sorts after job 2,
// so with two fewer free processors the walk takes job 2 too and the
// extra processors grow from 0 to 17. Job 4, which did not backfill
// before job 5 started, now fits in them.
func tieTrace() *workload.Trace {
	return &workload.Trace{Name: "tie", Procs: 30, Jobs: []*job.Job{
		job.New(1, 0, 600, 600, 5),
		job.New(2, 0, 600, 600, 20),
		job.New(3, 0, 300, 300, 10),  // head: 5 free, needs 10
		job.New(4, 0, 1200, 1200, 2), // too long for the shadow, no extra yet
		job.New(5, 0, 600, 600, 3),   // ends at the shadow
	}}
}

// TestBackfillAfterExtraGrows pins the outcome on tieTrace: job 4
// starts at once, on the grown extra processors, with job 5.
func TestBackfillAfterExtraGrows(t *testing.T) {
	res := sched.Run(tieTrace(), New(), sched.Options{})
	for _, j := range res.Jobs {
		if (j.ID == 4 || j.ID == 5) && j.FirstStart != 0 {
			t.Errorf("job %d starts at %d, want 0", j.ID, j.FirstStart)
		}
	}
}

// TestSchedulePassMatchesReference holds the one-pass schedule to
// refSchedule on generated CTC and SDSC traces, with and without the
// processor failures of the faults-ns benchmark workload, and on
// tieTrace. It requires the cells to reach both the resume and the
// restart; on the generated traces no start at the shadow ever grows
// the extra processors, so only tieTrace reaches the restart.
func TestSchedulePassMatchesReference(t *testing.T) {
	faultsNS := fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}
	generated := func(m workload.Model, jobs int, seed int64, load float64) *workload.Trace {
		return workload.Generate(m, workload.GenOptions{Jobs: jobs, Seed: seed}).ScaleLoad(load)
	}
	cells := []struct {
		name string
		tr   *workload.Trace
		opt  sched.Options
	}{
		{"sdsc-5000-1002-load1.2", generated(workload.SDSC(), 5000, 1002, 1.2), sched.Options{}},
		{"sdsc-3000-7-load1.5-bestfit", generated(workload.SDSC(), 3000, 7, 1.5), sched.Options{ContiguousAlloc: true}},
		{"ctc-3000-1-load2", generated(workload.CTC(), 3000, 1, 2), sched.Options{}},
		{"ctc-1500-1-faults", generated(workload.CTC(), 1500, 1, 1), sched.Options{Faults: faultsNS}},
		{"sdsc-2000-3-load1.2-faults", generated(workload.SDSC(), 2000, 3, 1.2), sched.Options{Faults: faultsNS}},
		{"tie", tieTrace(), sched.Options{}},
	}
	var resumes, restarts int
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			c.opt.MaxSteps = 10_000_000
			ref := comparePasses(t, c.tr, c.opt)
			t.Logf("rescans after a backfill start: %d resumable, %d restarts", ref.resumes, ref.restarts)
			resumes, restarts = resumes+ref.resumes, restarts+ref.restarts
		})
	}
	if resumes == 0 || restarts == 0 {
		t.Errorf("rescans after a backfill start: %d resumable, %d restarts; the cells no longer reach both",
			resumes, restarts)
	}
}

// FuzzEASYPass holds the one-pass schedule to refSchedule on small
// traces whose submit times, run times and estimates are multiples of
// five minutes, so that many running jobs share a projected end and
// the shadow walk meets ties, with optional processor failures. The
// first seed decodes to tieTrace.
func FuzzEASYPass(f *testing.F) {
	f.Add([]byte{29, 0, 0, 1, 0, 4, 0, 1, 0, 19, 0, 0, 0, 9, 0, 3, 0, 1, 0, 1, 0, 2})
	f.Add([]byte{7, 0, 0, 2, 1, 3, 0, 1, 1, 2, 1, 0, 0, 4, 0, 1, 3, 2, 0, 1, 1, 1, 2})
	f.Add([]byte{15, 0, 0, 3, 3, 9, 0, 1, 1, 3, 1, 2, 0, 5, 1, 0, 1, 12, 0, 0, 0, 2, 2, 0, 3, 3, 1, 7})
	f.Add([]byte{11, 1, 0, 2, 0, 8, 1, 1, 1, 4, 0, 3, 3, 6, 1, 0, 0, 2, 0, 2, 2, 9, 2, 1, 1, 5})
	f.Add([]byte{31, 0x45, 0, 4, 4, 20, 0, 2, 2, 6, 0, 1, 1, 30, 1, 3, 3, 4, 0, 0, 0, 11, 0, 3, 1, 17, 2, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2+4 {
			return
		}
		procs := 1 + int(data[0]%32)
		opt := sched.Options{MaxSteps: 2_000_000}
		if faults := data[1]; faults&1 != 0 {
			opt.Faults = fault.Config{MTBF: int64(20+int(faults>>1)) * 3600, MTTR: 1800, Seed: int64(faults)}
		}
		tr := &workload.Trace{Name: "fuzz", Procs: procs}
		submit := int64(0)
		for b := data[2:]; len(b) >= 4 && len(tr.Jobs) < 64; b = b[4:] {
			submit += int64(b[0]%4) * 300
			est := int64(1+b[1]%8) * 300
			run := max(est-int64(b[2]%4)*300, 300)
			tr.Jobs = append(tr.Jobs, job.New(len(tr.Jobs)+1, submit, run, est, 1+int(b[3])%procs))
		}
		comparePasses(t, tr, opt)
	})
}
