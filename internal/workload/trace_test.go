package workload

import (
	"math"
	"reflect"
	"testing"

	"pjs/internal/job"
)

func tinyTrace() *Trace {
	return &Trace{
		Name:  "tiny",
		Procs: 16,
		Jobs: []*job.Job{
			job.New(1, 0, 100, 100, 4),
			job.New(2, 50, 4000, 4000, 10),
			job.New(3, 100, 30000, 30000, 2),
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"empty", func(tr *Trace) { tr.Jobs = nil }},
		{"zero procs machine", func(tr *Trace) { tr.Procs = 0 }},
		{"out of order", func(tr *Trace) { tr.Jobs[0].SubmitTime = 999 }},
		{"zero runtime", func(tr *Trace) { tr.Jobs[1].RunTime = 0 }},
		{"too wide", func(tr *Trace) { tr.Jobs[1].Procs = 99 }},
		{"estimate below runtime", func(tr *Trace) { tr.Jobs[2].Estimate = 1 }},
		{"duplicate id", func(tr *Trace) { tr.Jobs[1].ID = 1; tr.Jobs[1].SubmitTime = 0 }},
	}
	for _, c := range cases {
		tr := tinyTrace()
		c.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad trace", c.name)
		}
	}
}

func TestCloneJobsIndependent(t *testing.T) {
	tr := tinyTrace()
	jobs := tr.CloneJobs()
	jobs[0].Dispatch(0, 0)
	jobs[0].Complete(100)
	if tr.Jobs[0].State != job.Queued {
		t.Error("mutating a clone affected the original")
	}
	if jobs[0].ID != tr.Jobs[0].ID || jobs[0].RunTime != tr.Jobs[0].RunTime {
		t.Error("clone lost static attributes")
	}
}

func TestScaleLoad(t *testing.T) {
	tr := tinyTrace()
	scaled := tr.ScaleLoad(2.0)
	if scaled.Jobs[1].SubmitTime != 25 || scaled.Jobs[2].SubmitTime != 50 {
		t.Errorf("submit times = %d,%d want 25,50",
			scaled.Jobs[1].SubmitTime, scaled.Jobs[2].SubmitTime)
	}
	if scaled.Jobs[1].RunTime != tr.Jobs[1].RunTime {
		t.Error("ScaleLoad must not change run times")
	}
	if tr.Jobs[1].SubmitTime != 50 {
		t.Error("ScaleLoad mutated the original")
	}
}

func TestScaleLoadDoublesOfferedLoad(t *testing.T) {
	tr := Generate(CTC(), GenOptions{Jobs: 2000, Seed: 3})
	l1 := tr.OfferedLoad()
	l2 := tr.ScaleLoad(2).OfferedLoad()
	if math.Abs(l2/l1-2) > 0.02 {
		t.Errorf("offered load ratio = %v, want ~2", l2/l1)
	}
}

func TestScaleLoadPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tinyTrace().ScaleLoad(0)
}

func TestDistributionTableSumsToOne(t *testing.T) {
	tr := tinyTrace()
	d := tr.DistributionTable()
	sum := 0.0
	for _, row := range d {
		for _, v := range row {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("distribution sums to %v", sum)
	}
	// Job 1: 100s VS, 4 procs N. Job 2: 4000s L, 10 procs W.
	// Job 3: 30000s VL, 2 procs N.
	if d[job.VeryShort][job.Narrow] == 0 || d[job.Long][job.Wide] == 0 ||
		d[job.VeryLong][job.Narrow] == 0 {
		t.Errorf("distribution misplaced: %v", d)
	}
}

func TestDistributionTable4(t *testing.T) {
	tr := tinyTrace()
	d := tr.DistributionTable4()
	// SN: job1 (100s,4p). SW: none. LN: job3. LW: job2.
	if math.Abs(d[0][0]-1.0/3) > 1e-12 || d[0][1] != 0 ||
		math.Abs(d[1][0]-1.0/3) > 1e-12 || math.Abs(d[1][1]-1.0/3) > 1e-12 {
		t.Errorf("table4 = %v", d)
	}
}

func TestSpanAndOfferedLoad(t *testing.T) {
	tr := tinyTrace()
	first, last := tr.Span()
	if first != 0 || last != 100 {
		t.Errorf("span = %d,%d", first, last)
	}
	want := float64(100*4+4000*10+30000*2) / float64(16*100)
	if got := tr.OfferedLoad(); math.Abs(got-want) > 1e-12 {
		t.Errorf("offered load = %v, want %v", got, want)
	}
}

func TestSortBySubmitStable(t *testing.T) {
	tr := &Trace{Name: "x", Procs: 4, Jobs: []*job.Job{
		job.New(1, 10, 5, 5, 1),
		job.New(2, 10, 5, 5, 1),
		job.New(3, 5, 5, 5, 1),
	}}
	tr.SortBySubmit()
	if tr.Jobs[0].ID != 3 || tr.Jobs[1].ID != 1 || tr.Jobs[2].ID != 2 {
		t.Errorf("order = %d,%d,%d", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
}

// TestCloneJobsAllocs pins the job slab: cloning makes the pointer slice
// and one backing array, whatever the trace length, and every clone is
// a fresh job.New with the original's memory size.
func TestCloneJobsAllocs(t *testing.T) {
	tr := Generate(SDSC(), GenOptions{Jobs: 1000, Seed: 1})
	if got := testing.AllocsPerRun(20, func() { tr.CloneJobs() }); got != 2 {
		t.Errorf("CloneJobs of %d jobs: %v allocations, want 2", len(tr.Jobs), got)
	}
	for i, c := range tr.CloneJobs() {
		j := tr.Jobs[i]
		want := job.New(j.ID, j.SubmitTime, j.RunTime, j.Estimate, j.Procs)
		want.MemPerProc = j.MemPerProc
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("clone %d = %+v, want %+v", i, *c, *want)
		}
	}
}
