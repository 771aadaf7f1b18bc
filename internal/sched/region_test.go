package sched_test

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/easy"
	"pjs/internal/workload"
)

// regionCycles is how many times regionScript cycles its two jobs.
const regionCycles = 256

// regionScript cycles two 2-wide jobs on a 4-processor machine, a, which
// starts first, and b. Each cycle commits b on a's set, which suspends
// a; at a's suspend-done b's claim activates; then a resumes on the two
// other processors (ResumeAnywhere), and b is killed and restarted
// (StartFresh) before it is killed again and commits the next cycle. It
// counts the allocations of every ResumeAnywhere, every StartFresh of b
// and every activation of b's claim (as its observer sees them, from
// a's suspend-done to b's start), and checks that each start writes the
// processors it reports into the job's region.
type regionScript struct {
	sched.IgnoreFailures
	env    *sched.Env
	a, b   *job.Job
	claim  []int
	cycles int

	ms                          runtime.MemStats
	mark                        uint64
	resume, start, activate     uint64
	region                      map[*job.Job]*int // each job's region, as the run gave it
	rewritten, outsideTheRegion int
}

func (s *regionScript) Name() string          { return "regionscript" }
func (s *regionScript) Init(env *sched.Env)   { s.env = env }
func (s *regionScript) TickInterval() int64   { return 0 }
func (s *regionScript) OnCompletion(*job.Job) {}
func (s *regionScript) OnTick()               {}
func (s *regionScript) mallocs() uint64       { runtime.ReadMemStats(&s.ms); return s.ms.Mallocs }

// inRegion reports whether j's set is stored where its region was.
func (s *regionScript) inRegion(j *job.Job) bool { return &j.ProcSet[:1][0] == s.region[j] }

func (s *regionScript) OnArrival(j *job.Job) {
	s.region[j] = &j.ProcSet[:1][0]
	if s.a == nil {
		s.a = j
		s.env.StartFresh(j)
		return
	}
	s.b = j
	s.commit()
}

// commit suspends a for b on a's set, from a buffer the driver copies.
func (s *regionScript) commit() {
	s.claim = append(s.claim[:0], s.a.ProcSet...)
	s.env.PreemptAndStart(s.b, []*job.Job{s.a}, s.claim)
}

func (s *regionScript) OnSuspendDone(*job.Job) {
	s.cycles++
	if s.cycles > regionCycles {
		s.env.ResumeAnywhere(s.a)
		return
	}
	old := slices.Clone(s.a.ProcSet)
	m := s.mallocs()
	s.env.ResumeAnywhere(s.a)
	s.resume += s.mallocs() - m
	if !slices.Equal(old, s.a.ProcSet) {
		s.rewritten++
	}
	s.env.Kill(s.b)
	m = s.mallocs()
	s.env.StartFresh(s.b)
	s.start += s.mallocs() - m
	for _, j := range []*job.Job{s.a, s.b} {
		if !s.inRegion(j) {
			s.outsideTheRegion++
		}
	}
	s.env.Kill(s.b)
	s.commit()
}

// Observe brackets the activation of b's claim.
func (s *regionScript) Observe(ev sched.Event) {
	switch {
	case ev.Job == s.a && ev.Action == sched.ActSuspendDone:
		s.mark = s.mallocs()
	case ev.Job == s.b && ev.Action == sched.ActStart && s.mark != 0:
		s.activate += s.mallocs() - s.mark
		s.mark = 0
		if !s.inRegion(s.b) {
			s.outsideTheRegion++
		}
	}
}

// TestStartsAllocateNothing pins that StartFresh, ResumeAnywhere and the
// activation of a queued job's claim write the job's processors into
// its region and allocate nothing: over regionCycles of each, the only
// allocations left are the doublings of the driver's lists and of the
// engine's heap, which gathers the cycles' stale completions.
func TestStartsAllocateNothing(t *testing.T) {
	tr := &workload.Trace{Name: "regions", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 1_000_000, 1_000_000, 2),
		job.New(2, 10, 1_000_000, 1_000_000, 2),
	}}
	s := &regionScript{region: map[*job.Job]*int{}}
	// One P, as in testing.AllocsPerRun: ReadMemStats's stop-the-world
	// could otherwise start an OS thread, whose allocations count here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sched.Run(tr, s, sched.Options{Observer: s})
	if s.cycles <= regionCycles {
		t.Fatalf("ran %d cycles, want %d", s.cycles, regionCycles)
	}
	if s.rewritten == 0 {
		t.Fatal("ResumeAnywhere never moved a to another set")
	}
	if s.outsideTheRegion != 0 {
		t.Errorf("%d starts left a job's set outside its region", s.outsideTheRegion)
	}
	limit := uint64(bits.Len(2*regionCycles) + 2)
	for _, c := range []struct {
		name   string
		allocs uint64
	}{{"ResumeAnywhere", s.resume}, {"StartFresh", s.start}, {"claim activation", s.activate}} {
		if c.allocs > limit {
			t.Errorf("%d calls of %s allocated %d times, want at most %d", regionCycles, c.name, c.allocs, limit)
		}
	}
	t.Logf("allocations over %d cycles: ResumeAnywhere %d, StartFresh %d, claim activation %d",
		regionCycles, s.resume, s.start, s.activate)
}

// TestRunAllocsIndependentOfJobCount pins that a run allocates nothing
// per job: the objects sched.Run allocates for NS on 10k- and 20k-job
// traces, with no audit and no observers, differ by no more than the
// region chunks the extra jobs need, plus a few growths of the lists
// whose peak length may grow with the trace (the wait queue and its
// widths, the running list, the event heap, the policy's release list).
// A chunk holds RegionChunk ints less at most the width of a job that
// did not fit in its tail.
func TestRunAllocsIndependentOfJobCount(t *testing.T) {
	run := func(n int) (allocs float64, procs, widest int) {
		tr := workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: n, Seed: 1})
		for _, j := range tr.Jobs {
			procs += j.Procs
			widest = max(widest, j.Procs)
		}
		return testing.AllocsPerRun(2, func() { sched.Run(tr, easy.New(), sched.Options{}) }), procs, widest
	}
	small, smallProcs, _ := run(10_000)
	large, largeProcs, widest := run(20_000)
	chunks := (largeProcs-smallProcs)/(sched.RegionChunk-widest) + 2
	t.Logf("sched.Run allocates %v objects for 10k jobs, %v for 20k; the extra jobs need up to %d region chunks", small, large, chunks)
	if limit := float64(chunks + 4); large-small > limit {
		t.Errorf("20k jobs take %v more allocations than 10k, want at most %v", large-small, limit)
	}
}

// TestRegionsHoldEveryWidth runs jobs narrower and wider than a region
// chunk side by side, so that chunks end in unused tails and a job gets
// a chunk of its own: each job's set must be its own Procs processors,
// in a region of exactly that capacity, and the audit log must pass the
// invariant checker (disjoint sets among running jobs).
func TestRegionsHoldEveryWidth(t *testing.T) {
	widths := []int{sched.RegionChunk - 1, 2, sched.RegionChunk + 500, 1, 300}
	tr := &workload.Trace{Name: "widths", Procs: 2*sched.RegionChunk + 900}
	for i, w := range widths {
		tr.Jobs = append(tr.Jobs, job.New(i+1, 0, 100, 100, w))
	}
	res := sched.Run(tr, easy.New(), sched.Options{Audit: true})
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if len(j.ProcSet) != j.Procs || cap(j.ProcSet) != j.Procs {
			t.Errorf("job %d of width %d has a set of %d in a region of %d", j.ID, j.Procs, len(j.ProcSet), cap(j.ProcSet))
		}
		if j.FirstStart != 0 {
			t.Errorf("job %d started at %d, want 0: all fit at once", j.ID, j.FirstStart)
		}
	}
}
