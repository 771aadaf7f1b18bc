package ss_test

import (
	"slices"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/theory"
	"pjs/internal/workload"
)

// twoTask runs SS with suspension factor sf on the Section IV-A set-up
// — two jobs of length L submitted at t = 0 to one processor, no
// overhead — and returns the execution bursts read from the audit log
// (job i as task i) and the number of suspensions.
func twoTask(t *testing.T, L int64, sf float64) ([]theory.Segment, int) {
	t.Helper()
	tr := &workload.Trace{Name: "two-task", Procs: 1, Jobs: []*job.Job{
		job.New(1, 0, L, L, 1),
		job.New(2, 0, L, L, 1),
	}}
	res := sched.Run(tr, ss.New(ss.Config{SF: sf}), sched.Options{Audit: true, MaxSteps: 2_000_000})
	var segs []theory.Segment
	start := map[int]int64{}
	suspensions := 0
	for _, e := range res.Audit.Entries {
		switch e.Action {
		case sched.ActStart, sched.ActResume:
			start[e.JobID] = e.Time
		case sched.ActSuspendBegin, sched.ActFinish:
			segs = append(segs, theory.Segment{Task: e.JobID, Start: start[e.JobID], End: e.Time})
			if e.Action == sched.ActSuspendBegin {
				suspensions++
			}
		}
	}
	return segs, suspensions
}

// TestTwoTaskMatchesFigures runs the real scheduler on the execution
// patterns of Figures 4–6 (SF 1, 1.3 and 2; one-hour tasks, the
// one-minute preemption routine) and requires the closed-form
// timeline's bursts, swap for swap.
func TestTwoTaskMatchesFigures(t *testing.T) {
	const L, tick = 3600, 60
	for _, tc := range []struct {
		sf          float64
		suspensions int
	}{
		{1, 118},
		{1.3, 2},
		{2, 0},
	} {
		want := theory.TwoTask(L, tc.sf, tick)
		got, n := twoTask(t, L, tc.sf)
		if n != tc.suspensions || want.Suspensions != tc.suspensions {
			t.Errorf("SF=%v: %d suspensions, closed form %d, want %d", tc.sf, n, want.Suspensions, tc.suspensions)
		}
		if !slices.Equal(got, want.Segments) {
			t.Errorf("SF=%v: bursts\n%v\nwant the closed form's\n%v", tc.sf, got, want.Segments)
		}
	}
}

// TestTwoTaskSuspensionLadder sweeps SF over the range of the theory
// package's TestTimelineMatchesClosedForm and requires the real
// scheduler to suspend exactly theory.MaxSuspensions(SF) times: the
// count of k ≥ 1 with SF^k < 2, so s = (n+2)/(n+1) allows at most n.
func TestTwoTaskSuspensionLadder(t *testing.T) {
	for sf := 1.05; sf < 3; sf += 0.07 {
		if _, n := twoTask(t, 100_000, sf); n != theory.MaxSuspensions(sf) {
			t.Errorf("SF=%v: %d suspensions, closed form %d", sf, n, theory.MaxSuspensions(sf))
		}
	}
}
