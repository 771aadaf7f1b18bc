package check

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pjs/internal/sched"
)

// logBuilder assembles synthetic audit logs for the checker tests.
type logBuilder struct {
	log sched.AuditLog
}

func newLog(procs int) *logBuilder {
	return &logBuilder{log: sched.AuditLog{Procs: procs}}
}

func (b *logBuilder) add(t int64, a sched.Action, id int, procs []int, width int, run, submit int64) *logBuilder {
	b.log.Entries = append(b.log.Entries, sched.Entry{
		Time: t, Action: a, JobID: id, Procs: procs,
		Width: width, RunTime: run, Submit: submit,
	})
	return b
}

func okLog() *logBuilder {
	// One job: arrive 0, start 10 on {0,1}, suspended 30-35, resume 40,
	// finish at 120 (20 + 80 = 100 s of work).
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(30, sched.ActSuspendBegin, 1, []int{0, 1}, 2, 100, 0)
	b.add(35, sched.ActSuspendDone, 1, []int{0, 1}, 2, 100, 0)
	b.add(40, sched.ActResume, 1, []int{0, 1}, 2, 100, 0)
	b.add(120, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0)
	return b
}

func TestCheckAcceptsValidLog(t *testing.T) {
	if err := Check(&okLog().log, Options{ZeroOverhead: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNilLog(t *testing.T) {
	if err := Check(nil, Options{}); err == nil {
		t.Error("nil log must error")
	}
}

func mustFail(t *testing.T, b *logBuilder, opt Options, substr string) {
	t.Helper()
	err := Check(&b.log, opt)
	if err == nil {
		t.Fatalf("expected failure containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

// TestCheckUnfinishedNamesLowestID pins the end-of-log error on a log
// with several unfinished jobs: it must name the lowest unfinished ID
// on every check, not whichever job the map's order yields first.
func TestCheckUnfinishedNamesLowestID(t *testing.T) {
	b := newLog(4)
	for _, id := range []int{9, 4, 17, 6, 12, 5} {
		b.add(0, sched.ActArrive, id, nil, 2, 100, 0)
	}
	const want = "check: job 4 ended in state 1, want finished"
	for i := 0; i < 50; i++ {
		err := Check(&b.log, Options{})
		if err == nil || err.Error() != want {
			t.Fatalf("check %d: error %v, want %q", i, err, want)
		}
	}
}

func TestCheckOversubscription(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(0, sched.ActArrive, 2, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(20, sched.ActStart, 2, []int{1, 2}, 2, 100, 0)
	mustFail(t, b, Options{}, "already owned")
}

func TestCheckLocalRestartViolation(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(30, sched.ActSuspendBegin, 1, []int{0, 1}, 2, 100, 0)
	b.add(35, sched.ActSuspendDone, 1, []int{0, 1}, 2, 100, 0)
	b.add(40, sched.ActResume, 1, []int{2, 3}, 2, 100, 0) // different set!
	b.add(120, sched.ActFinish, 1, []int{2, 3}, 2, 100, 0)
	mustFail(t, b, Options{}, "local-restart")
}

func TestCheckWorkConservation(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(60, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0) // only 50 s ran
	mustFail(t, b, Options{ZeroOverhead: true}, "work conservation")
}

func TestCheckWorkConservationAllowsOverheadSlack(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(130, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0) // 120 s wall
	if err := Check(&b.log, Options{}); err != nil {
		t.Errorf("overhead slack should be allowed: %v", err)
	}
	mustFail(t, b, Options{ZeroOverhead: true}, "work conservation")
}

func TestCheckStartBeforeSubmit(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 50)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 50)
	b.add(110, sched.ActFinish, 1, []int{0, 1}, 2, 100, 50)
	mustFail(t, b, Options{}, "before submit")
}

func TestCheckWrongWidth(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 3, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 3, 100, 0)
	mustFail(t, b, Options{}, "width")
}

func TestCheckIllegalTransitions(t *testing.T) {
	// Resume without suspension.
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActResume, 1, []int{0, 1}, 2, 100, 0)
	mustFail(t, b, Options{}, "resume from state")

	// Finish while suspended.
	b = newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(20, sched.ActSuspendBegin, 1, []int{0, 1}, 2, 100, 0)
	b.add(25, sched.ActSuspendDone, 1, []int{0, 1}, 2, 100, 0)
	b.add(30, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0)
	mustFail(t, b, Options{}, "finish from state")

	// Duplicate arrival.
	b = newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(5, sched.ActArrive, 1, nil, 2, 100, 0)
	mustFail(t, b, Options{}, "duplicate arrival")

	// A tick is emitted to observers only; the log never holds one.
	b = newLog(4)
	b.add(0, sched.ActTick, -1, nil, 0, 0, 0)
	mustFail(t, b, Options{}, "tick in the audit log")
}

// strandedLog suspends job 1 on {0,1} while job 2 runs on {2}, then
// fails processor 1, under job 1's image; lost says whether the log
// records the image-lost entry the failure owes.
func strandedLog(lost bool) *logBuilder {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(0, sched.ActArrive, 2, nil, 1, 100, 0)
	b.add(0, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(0, sched.ActStart, 2, []int{2}, 1, 100, 0)
	b.add(10, sched.ActSuspendBegin, 1, []int{0, 1}, 2, 100, 0)
	b.add(10, sched.ActSuspendDone, 1, []int{0, 1}, 2, 100, 0)
	b.add(20, sched.ActProcFail, -1, []int{1}, 0, 0, 0)
	if lost {
		b.add(20, sched.ActImageLost, 1, []int{0, 1}, 2, 100, 0)
	}
	b.add(100, sched.ActFinish, 2, []int{2}, 1, 100, 0)
	b.add(110, sched.ActProcRepair, -1, []int{1}, 0, 0, 0)
	b.add(110, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(210, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0)
	return b
}

func TestCheckStrandedImage(t *testing.T) {
	if err := Check(&strandedLog(true).log, Options{ZeroOverhead: true}); err != nil {
		t.Fatalf("image lost on failure: %v", err)
	}
	mustFail(t, strandedLog(false), Options{}, "kept its suspended image on failed processor 1")
	// A failure at the end of the log still owes its image-lost entries.
	b := strandedLog(true)
	b.log.Entries = b.log.Entries[:7]
	mustFail(t, b, Options{}, "kept its suspended image on failed processor 1")
}

func TestCheckUnfinishedJob(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	mustFail(t, b, Options{}, "want finished")
}

func TestCheckTimeMonotonicity(t *testing.T) {
	b := newLog(4)
	b.add(10, sched.ActArrive, 1, nil, 2, 100, 10)
	b.add(5, sched.ActArrive, 2, nil, 2, 100, 5)
	mustFail(t, b, Options{}, "before")
}

func TestCheckProcsOutOfRange(t *testing.T) {
	b := newLog(2)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{1, 2}, 2, 100, 0)
	mustFail(t, b, Options{}, "out of range")
}

func TestCheckDuplicateProcInSet(t *testing.T) {
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{1, 1}, 2, 100, 0)
	mustFail(t, b, Options{}, "duplicate processor")
}

func TestActionString(t *testing.T) {
	names := map[sched.Action]string{
		sched.ActArrive:       "arrive",
		sched.ActStart:        "start",
		sched.ActResume:       "resume",
		sched.ActSuspendBegin: "suspend-begin",
		sched.ActSuspendDone:  "suspend-done",
		sched.ActFinish:       "finish",
	}
	for a, w := range names {
		if a.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), w)
		}
	}
}

// TestCheckProcessorSetCases replays dispatches, resumes, I/O retries
// and image losses on duplicate, out-of-range and permuted sets.
func TestCheckProcessorSetCases(t *testing.T) {
	// suspended is job 1 on {0,1,2} of 4 processors, suspended at 35.
	suspended := func() *logBuilder {
		b := newLog(4)
		b.add(0, sched.ActArrive, 1, nil, 3, 100, 0)
		b.add(10, sched.ActStart, 1, []int{0, 1, 2}, 3, 100, 0)
		b.add(30, sched.ActSuspendBegin, 1, []int{0, 1, 2}, 3, 100, 0)
		b.add(35, sched.ActSuspendDone, 1, []int{0, 1, 2}, 3, 100, 0)
		return b
	}
	for _, tc := range []struct {
		name string
		last func(b *logBuilder)
		want string // error substring; "" = accepted
	}{
		{"resume on a permuted set", func(b *logBuilder) {
			b.add(40, sched.ActResume, 1, []int{2, 0, 1}, 3, 100, 0)
			b.add(120, sched.ActFinish, 1, []int{2, 0, 1}, 3, 100, 0)
		}, ""},
		{"resume with a duplicate", func(b *logBuilder) {
			b.add(40, sched.ActResume, 1, []int{0, 1, 0}, 3, 100, 0)
		}, "duplicate processor 0 in set"},
		{"resume out of range", func(b *logBuilder) {
			b.add(40, sched.ActResume, 1, []int{0, 1, 4}, 3, 100, 0)
		}, "processor 4 out of range [0,4)"},
		{"resume negative before duplicate", func(b *logBuilder) {
			b.add(40, sched.ActResume, 1, []int{-1, 1, 1}, 3, 100, 0)
		}, "processor -1 out of range [0,4)"},
		{"resume on another set", func(b *logBuilder) {
			b.add(40, sched.ActResume, 1, []int{0, 1, 3}, 3, 100, 0)
		}, "local-restart violation: resumed on [0 1 3], suspended on [0 1 2]"},
		{"image lost on a permuted set", func(b *logBuilder) {
			b.add(50, sched.ActImageLost, 1, []int{1, 2, 0}, 3, 100, 0)
			b.add(60, sched.ActStart, 1, []int{3, 2, 1}, 3, 100, 0)
			b.add(160, sched.ActFinish, 1, []int{3, 2, 1}, 3, 100, 0)
		}, ""},
		{"image lost with a duplicate", func(b *logBuilder) {
			b.add(50, sched.ActImageLost, 1, []int{0, 1, 1}, 3, 100, 0)
		}, "image-lost set [0 1 1], suspended on [0 1 2]"},
		{"image lost out of range", func(b *logBuilder) {
			b.add(50, sched.ActImageLost, 1, []int{0, 1, 9}, 3, 100, 0)
		}, "image-lost set [0 1 9], suspended on [0 1 2]"},
		{"image lost on a shorter set", func(b *logBuilder) {
			b.add(50, sched.ActImageLost, 1, []int{0, 1}, 3, 100, 0)
		}, "image-lost set [0 1], suspended on [0 1 2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := suspended()
			tc.last(b)
			err := Check(&b.log, Options{ZeroOverhead: true})
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			mustFail(t, b, Options{}, tc.want)
		})
	}
	// An I/O retry during the suspend write names the job's set in any
	// order; a duplicate or a negative processor is a different set.
	for _, tc := range []struct {
		set  []int
		want string
	}{
		{[]int{2, 1, 0}, ""},
		{[]int{2, 2, 0}, "io-retry on set [2 2 0], job holds [0 1 2]"},
		{[]int{-1, 1, 0}, "io-retry on set [-1 1 0], job holds [0 1 2]"},
	} {
		b := newLog(4)
		b.add(0, sched.ActArrive, 1, nil, 3, 100, 0)
		b.add(10, sched.ActStart, 1, []int{0, 1, 2}, 3, 100, 0)
		b.add(30, sched.ActSuspendBegin, 1, []int{0, 1, 2}, 3, 100, 0)
		b.add(32, sched.ActIORetry, 1, tc.set, 3, 100, 0)
		if tc.want != "" {
			mustFail(t, b, Options{}, tc.want)
			continue
		}
		b.add(35, sched.ActSuspendDone, 1, []int{0, 1, 2}, 3, 100, 0)
		b.add(40, sched.ActResume, 1, []int{1, 2, 0}, 3, 100, 0)
		b.add(120, sched.ActFinish, 1, []int{0, 1, 2}, 3, 100, 0)
		if err := Check(&b.log, Options{ZeroOverhead: true}); err != nil {
			t.Fatalf("io-retry on %v: %v", tc.set, err)
		}
	}
}

// mapValidSet and sortSameSet are the checker's set tests before the
// stamp: a map per dispatch and two sorted copies per comparison.
func mapValidSet(procs []int, n int) error {
	seen := make(map[int]bool, len(procs))
	for _, p := range procs {
		if p < 0 || p >= n {
			return fmt.Errorf("processor %d out of range [0,%d)", p, n)
		}
		if seen[p] {
			return fmt.Errorf("duplicate processor %d in set", p)
		}
		seen[p] = true
	}
	return nil
}

func sortSameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// TestStampMatchesMapAndSort compares the stamp's set tests with the
// map and sort versions over random small sets, duplicates and
// out-of-range processors included; sameSet's second set is always one
// validSet accepted, as in Check. The generation starts near the top
// so the wrap-around clear runs too.
func TestStampMatchesMapAndSort(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(1))
	s := stamp{mark: make([]uint32, n), gen: math.MaxUint32 - 50}
	randSet := func() []int {
		set := make([]int, rng.Intn(5))
		for i := range set {
			set[i] = rng.Intn(n+2) - 1
		}
		return set
	}
	for range 20_000 {
		a, b := randSet(), randSet()
		if got, want := fmt.Sprint(s.validSet(a)), fmt.Sprint(mapValidSet(a, n)); got != want {
			t.Fatalf("validSet(%v) = %s, map version %s", a, got, want)
		}
		if mapValidSet(b, n) != nil {
			b = rng.Perm(n)[:len(b)]
		}
		if rng.Intn(3) == 0 {
			a = slices.Clone(b)
			rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		}
		if got, want := s.sameSet(a, b), sortSameSet(a, b); got != want {
			t.Fatalf("sameSet(%v, %v) = %v, sort version %v", a, b, got, want)
		}
	}
}
