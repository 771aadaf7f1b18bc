package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pjs/internal/job"
)

// finished builds a finished job with the given timing.
func finished(id int, submit, start, run, est int64, procs int) *job.Job {
	j := job.New(id, submit, run, est, procs)
	j.Dispatch(start, 0)
	j.Complete(start + run)
	return j
}

func TestBoundedSlowdown(t *testing.T) {
	// 100 s job waited 100 s: slowdown 2.
	j := finished(1, 0, 100, 100, 100, 1)
	if got := BoundedSlowdown(j); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	// No wait: slowdown 1.
	j = finished(2, 0, 0, 100, 100, 1)
	if got := BoundedSlowdown(j); got != 1 {
		t.Errorf("slowdown = %v, want 1", got)
	}
}

func TestBoundedSlowdownThreshold(t *testing.T) {
	// A 1-second job that waited 60 s: raw slowdown 61, bounded uses
	// max(run,10): (60+1)/10 = 6.1.
	j := finished(1, 0, 60, 1, 1, 1)
	if got := BoundedSlowdown(j); math.Abs(got-6.1) > 1e-9 {
		t.Errorf("slowdown = %v, want 6.1", got)
	}
}

func TestBoundedSlowdownFloorsAtOne(t *testing.T) {
	// Run 5s (clamped to 10) with no wait: 5/10 < 1 → floored.
	j := finished(1, 0, 0, 5, 5, 1)
	if got := BoundedSlowdown(j); got != 1 {
		t.Errorf("slowdown = %v, want 1 (floor)", got)
	}
}

func TestSummarizeCategories(t *testing.T) {
	jobs := []*job.Job{
		finished(1, 0, 100, 300, 300, 1),    // VS-Seq, sd=(100+300)/300=1.33
		finished(2, 0, 0, 300, 300, 1),      // VS-Seq, sd=1
		finished(3, 0, 50, 7200, 7200, 40),  // L-VW
		finished(4, 0, 0, 40000, 40000, 10), // VL-W
	}
	s := Summarize(jobs, 0.5, 1000, All)
	vsSeq := s.Cat(job.Category{Length: job.VeryShort, Width: job.Sequential})
	if vsSeq.Count != 2 {
		t.Fatalf("VS-Seq count = %d", vsSeq.Count)
	}
	want := (400.0/300.0 + 1) / 2
	if math.Abs(vsSeq.MeanSlowdown-want) > 1e-9 {
		t.Errorf("VS-Seq mean = %v, want %v", vsSeq.MeanSlowdown, want)
	}
	if math.Abs(vsSeq.WorstSlowdown-400.0/300.0) > 1e-9 {
		t.Errorf("VS-Seq worst = %v", vsSeq.WorstSlowdown)
	}
	if s.Cat(job.Category{Length: job.Long, Width: job.VeryWide}).Count != 1 {
		t.Error("L-VW misplaced")
	}
	if s.Overall.Count != 4 {
		t.Errorf("overall count = %d", s.Overall.Count)
	}
	if s.Utilization != 0.5 || s.Makespan != 1000 {
		t.Error("utilization/makespan not carried through")
	}
}

func TestSummarize4Way(t *testing.T) {
	jobs := []*job.Job{
		finished(1, 0, 0, 100, 100, 1),      // SN
		finished(2, 0, 0, 100, 100, 30),     // SW
		finished(3, 0, 0, 40000, 40000, 2),  // LN
		finished(4, 0, 0, 40000, 40000, 30), // LW
	}
	s := Summarize(jobs, 0, 0, All)
	for i, c := range job.AllCategories4() {
		if got := s.Cat4(c).Count; got != 1 {
			t.Errorf("%v count = %d, want 1 (index %d)", c, got, i)
		}
	}
}

func TestSummarizeFilters(t *testing.T) {
	good := finished(1, 0, 100, 100, 150, 1) // estimate 1.5×: well
	bad := finished(2, 0, 900, 100, 500, 1)  // estimate 5×: badly
	jobs := []*job.Job{good, bad}
	all := Summarize(jobs, 0, 0, All)
	well := Summarize(jobs, 0, 0, WellEstimated)
	badly := Summarize(jobs, 0, 0, BadlyEstimated)
	if all.Overall.Count != 2 || well.Overall.Count != 1 || badly.Overall.Count != 1 {
		t.Fatalf("counts = %d/%d/%d", all.Overall.Count, well.Overall.Count, badly.Overall.Count)
	}
	if well.Overall.MeanSlowdown != 2 { // (100+100)/100
		t.Errorf("well mean = %v", well.Overall.MeanSlowdown)
	}
	if badly.Overall.MeanSlowdown != 10 { // (900+100)/100
		t.Errorf("badly mean = %v", badly.Overall.MeanSlowdown)
	}
}

func TestFilterString(t *testing.T) {
	if All.String() != "all" || WellEstimated.String() != "well-estimated" ||
		BadlyEstimated.String() != "badly-estimated" {
		t.Error("filter names")
	}
}

func TestMeanWaitAndTurnaround(t *testing.T) {
	j := finished(1, 10, 110, 50, 50, 2) // wait 100, TAT 150
	s := Summarize([]*job.Job{j}, 0, 0, All)
	if s.Overall.MeanTurnaround != 150 {
		t.Errorf("TAT = %v", s.Overall.MeanTurnaround)
	}
	if s.Overall.MeanWait != 100 {
		t.Errorf("wait = %v", s.Overall.MeanWait)
	}
	if s.Overall.WorstTurnaround != 150 {
		t.Errorf("worst TAT = %v", s.Overall.WorstTurnaround)
	}
}

func TestSuspensionsCounted(t *testing.T) {
	j := job.New(1, 0, 100, 100, 1)
	j.Dispatch(0, 0)
	j.Preempt(50)
	j.SuspendDone()
	j.Dispatch(60, 0)
	j.Complete(110)
	s := Summarize([]*job.Job{j}, 0, 0, All)
	if s.Overall.Suspensions != 1 {
		t.Errorf("suspensions = %d", s.Overall.Suspensions)
	}
}

func TestSlowdownTable(t *testing.T) {
	jobs := []*job.Job{finished(1, 0, 300, 300, 300, 1)} // VS-Seq, sd 2
	s := Summarize(jobs, 0, 0, All)
	tab := s.SlowdownTable()
	if tab[0] != 2 {
		t.Errorf("table[0] = %v, want 2", tab[0])
	}
	for i := 1; i < 16; i++ {
		if tab[i] != 0 {
			t.Errorf("table[%d] = %v, want 0", i, tab[i])
		}
	}
}

func TestPercentileStats(t *testing.T) {
	var jobs []*job.Job
	// Slowdowns 1..20 in VS-Seq (run 300 s, waits 0,300,600,...).
	for i := 0; i < 20; i++ {
		jobs = append(jobs, finished(i+1, 0, int64(i)*300, 300, 300, 1))
	}
	s := Summarize(jobs, 0, 0, All)
	c := s.Cat(job.Category{Length: job.VeryShort, Width: job.Sequential})
	if math.Abs(c.MedianSlowdown-10.5) > 1e-9 {
		t.Errorf("median = %v, want 10.5", c.MedianSlowdown)
	}
	if c.P95Slowdown < 19 || c.P95Slowdown > 20 {
		t.Errorf("p95 = %v, want within (19,20]", c.P95Slowdown)
	}
	if c.WorstSlowdown != 20 {
		t.Errorf("worst = %v, want 20", c.WorstSlowdown)
	}
}

func TestKillsCounted(t *testing.T) {
	j := job.New(1, 0, 100, 100, 1)
	j.Dispatch(0, 0)
	j.Kill(50)
	j.Dispatch(60, 0)
	j.Complete(160)
	s := Summarize([]*job.Job{j}, 0, 0, All)
	if s.Overall.Kills != 1 {
		t.Errorf("kills = %d, want 1", s.Overall.Kills)
	}
}

func TestWriteJobsCSV(t *testing.T) {
	j := finished(7, 10, 110, 50, 120, 3)
	var buf strings.Builder
	if err := WriteJobsCSV(&buf, []*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "job,category,") {
		t.Errorf("header: %q", out)
	}
	// wait=100 turnaround=150 slowdown=(150)/50=3, badly estimated (120>100).
	if !strings.Contains(out, "7,VS-N,SN,3,10,110,160,50,120,100,150,3,false,0,0") {
		t.Errorf("row: %q", out)
	}
}

func TestWriteJobsCSVRejectsUnfinished(t *testing.T) {
	j := job.New(1, 0, 10, 10, 1)
	if err := WriteJobsCSV(&strings.Builder{}, []*job.Job{j}); err == nil {
		t.Error("unfinished job must error")
	}
}

func TestEmptySummary(t *testing.T) {
	s := Summarize(nil, 0, 0, All)
	if s.Overall.Count != 0 || s.Overall.MeanSlowdown != 0 {
		t.Error("empty summary should be all zeros")
	}
}

// randomFinished returns n finished jobs with random shapes and waits,
// spread over every category.
func randomFinished(n int, seed int64) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		run := 1 + rng.Int63n(100_000)
		submit := rng.Int63n(10_000_000)
		jobs[i] = finished(i+1, submit, submit+rng.Int63n(200_000), run, run+rng.Int63n(4*run), 1+rng.Intn(430))
	}
	return jobs
}

// copySortPercentile is the percentile every summary cell used before
// catAcc sorted its samples once: copy, sort, interpolate.
func copySortPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestSummaryPercentilesMatchCopySort holds the sort-once summary to
// the copy-and-sort percentile bit for bit, at all three granularities.
func TestSummaryPercentilesMatchCopySort(t *testing.T) {
	jobs := randomFinished(50_000, 1)
	for _, f := range []Filter{All, WellEstimated, BadlyEstimated} {
		s := Summarize(jobs, 0, 0, f)
		var by [16][]float64
		var by4 [4][]float64
		var all []float64
		for _, j := range jobs {
			if !f.keep(j) {
				continue
			}
			sd := BoundedSlowdown(j)
			by[j.Category().Index()] = append(by[j.Category().Index()], sd)
			by4[j.Category4().Index()] = append(by4[j.Category4().Index()], sd)
			all = append(all, sd)
		}
		same := func(cell string, got CatStats, xs []float64) {
			t.Helper()
			med, p95 := copySortPercentile(xs, 50), copySortPercentile(xs, 95)
			if math.Float64bits(got.MedianSlowdown) != math.Float64bits(med) ||
				math.Float64bits(got.P95Slowdown) != math.Float64bits(p95) {
				t.Errorf("%v %s: median/p95 = %v/%v, copy-and-sort gives %v/%v",
					f, cell, got.MedianSlowdown, got.P95Slowdown, med, p95)
			}
		}
		for i := range by {
			same(fmt.Sprintf("category %d", i), s.ByCategory[i], by[i])
		}
		for i := range by4 {
			same(fmt.Sprintf("category4 %d", i), s.ByCategory4[i], by4[i])
		}
		same("overall", s.Overall, all)
	}
}

// Summarize allocates the Summary and one backing array for every
// cell's slowdown samples, whatever the trace size and filter.
func TestSummarizeAllocs(t *testing.T) {
	jobs := randomFinished(5_000, 2)
	for _, f := range []Filter{All, WellEstimated, BadlyEstimated} {
		if n := testing.AllocsPerRun(10, func() { Summarize(jobs, 0, 0, f) }); n != 2 {
			t.Errorf("%v: Summarize made %v allocations, want 2", f, n)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	jobs := randomFinished(50_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(jobs, 0, 0, All)
	}
}
