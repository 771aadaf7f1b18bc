package sched_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// refShadow is the sort-based reservation walk that Releases.Shadow
// replaced: decorate the running jobs with their projected ends, stable
// sort by (end, ID), and accumulate releases until the head fits. It
// lives only here, as the oracle for the differential test and the fuzz
// target below.
func refShadow(running []*job.Job, free, need int) (shadowTime int64, extraNodes int) {
	type rel struct {
		end   int64
		procs int
		id    int
	}
	rels := make([]rel, 0, len(running))
	for _, r := range running {
		rels = append(rels, rel{end: r.ProjectedEnd(), procs: r.Procs, id: r.ID})
	}
	sort.SliceStable(rels, func(i, k int) bool {
		if rels[i].end != rels[k].end {
			return rels[i].end < rels[k].end
		}
		return rels[i].id < rels[k].id
	})
	for _, r := range rels {
		if free >= need {
			break
		}
		free += r.procs
		shadowTime = r.end
	}
	if free < need {
		return shadowTime, 0
	}
	return shadowTime, free - need
}

// releaseStats counts what a replay exercised: equal projected ends
// between neighbours in release order, and heads wider than the free
// plus every releasable processor.
type releaseStats struct{ ties, wide int }

// replayReleases decodes data as a sequence of two-byte list operations
// and checks the list against the reference after each one. An even
// first byte (or an empty list) inserts a new job; an odd one removes
// the listed job the second byte selects. Inserted jobs take their
// projected end from {50, 150, 250} — LastDispatch 0 or 100 plus
// estimate 50 or 150 — so equal ends are common, and their IDs are not
// monotone in insertion order, so the ID tie-break matters. After each
// operation the reservation of every head width, up to three past the
// free plus all listed processors, is compared for a free count taken
// from the data.
func replayReleases(t testing.TB, data []byte) releaseStats {
	if len(data) > 1024 {
		data = data[:1024]
	}
	var (
		list    sched.Releases
		running []*job.Job // insertion order, like a policy's start order
		st      releaseStats
	)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		if op%2 == 0 || len(running) == 0 {
			id := int(op)<<10 | i/2
			j := job.New(id, 0, 1, []int64{50, 150}[arg>>3&1], 1+int(arg&7))
			j.LastDispatch = []int64{0, 100}[arg>>4&1]
			list.Insert(j, j.ProjectedEnd())
			running = append(running, j)
		} else {
			k := int(arg) % len(running)
			list.Remove(running[k], running[k].ProjectedEnd())
			running = slices.Delete(running, k, k+1)
		}

		if list.Len() != len(running) {
			t.Fatalf("op %d: list holds %d jobs, want %d", i/2, list.Len(), len(running))
		}
		total := 0
		for k := 0; k < list.Len(); k++ {
			j, end := list.At(k)
			if end != j.ProjectedEnd() {
				t.Fatalf("op %d: job %d listed at %d, projected end %d", i/2, j.ID, end, j.ProjectedEnd())
			}
			if k > 0 {
				prev, prevEnd := list.At(k - 1)
				if prevEnd > end || (prevEnd == end && prev.ID >= j.ID) {
					t.Fatalf("op %d: job %d (end %d) listed before job %d (end %d)", i/2, prev.ID, prevEnd, j.ID, end)
				}
				if prevEnd == end {
					st.ties++
				}
			}
			total += j.Procs
		}
		// The walk's result is constant in need between two cumulative
		// release counts, so checking both ends of every such interval,
		// and one past the last, covers every head width.
		free := int(op>>1) % 5
		needs := []int{0, free + total + 3}
		for k, c := 0, free; k <= list.Len(); k++ {
			needs = append(needs, c, c+1)
			if k < list.Len() {
				j, _ := list.At(k)
				c += j.Procs
			}
		}
		for _, need := range needs {
			at, extra := list.Shadow(free, need)
			wantAt, wantExtra := refShadow(running, free, need)
			if at != wantAt || extra != wantExtra {
				t.Fatalf("op %d: Shadow(free %d, need %d) = (%d, %d), reference (%d, %d)",
					i/2, free, need, at, extra, wantAt, wantExtra)
			}
			if need > free+total {
				st.wide++
			}
		}
	}
	return st
}

// TestReleasesMatchSortReference is the differential test of the
// ordered release list: over random insert/remove sequences dense in
// equal projected ends, its order and every reservation it computes —
// heads wider than the machine included — must match the sort-based
// walk it replaced.
func TestReleasesMatchSortReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var total releaseStats
	for iter := 0; iter < 100; iter++ {
		data := make([]byte, 2*(1+r.IntN(60)))
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		// Bias toward inserts so the list grows long.
		for i := 0; i < len(data); i += 2 {
			if r.IntN(3) > 0 {
				data[i] &^= 1
			}
		}
		st := replayReleases(t, data)
		total.ties += st.ties
		total.wide += st.wide
	}
	if total.ties < 10000 || total.wide < 2000 {
		t.Fatalf("only %d end ties and %d too-wide heads; the generator no longer exercises them", total.ties, total.wide)
	}
}

// FuzzReleases checks the ordered release list against the sort-based
// reference on arbitrary operation sequences, decoded as in
// TestReleasesMatchSortReference.
func FuzzReleases(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x1f, 2, 0x01, 4, 0x17, 1, 0x01, 6, 0x08})
	f.Add([]byte{8, 0x10, 8, 0x10, 10, 0x18, 3, 0x00, 3, 0x00, 12, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayReleases(t, data)
	})
}

// TestReleasesShadowZeroAllocs pins the allocation-free contract of the
// reservation walk, which runs once per backfill pass.
func TestReleasesShadowZeroAllocs(t *testing.T) {
	var list sched.Releases
	for id := 1; id <= 200; id++ {
		j := job.New(id, 0, 1, int64(100+id%7*50), 1+id%8)
		list.Insert(j, j.ProjectedEnd())
	}
	var at int64
	allocs := testing.AllocsPerRun(100, func() {
		a, _ := list.Shadow(3, 500)
		at += a
	})
	if allocs != 0 {
		t.Fatalf("Shadow allocated %v times per call, want 0", allocs)
	}
}

// TestReleasesRemoveUnlisted pins that removing a job under a release
// time it was not inserted at panics instead of leaving a stale entry
// behind to skew later reservations.
func TestReleasesRemoveUnlisted(t *testing.T) {
	var list sched.Releases
	j := job.New(1, 0, 100, 100, 2)
	list.Insert(j, j.ProjectedEnd())
	defer func() {
		if recover() == nil {
			t.Fatal("Remove at the wrong release time did not panic")
		}
	}()
	list.Remove(j, j.ProjectedEnd()+1)
}
