package cluster

import (
	"math/rand"
	"testing"
)

func TestNewAllFree(t *testing.T) {
	c := New(16)
	if c.Size() != 16 || c.FreeUnclaimed() != 16 || c.Busy() != 0 {
		t.Fatalf("size=%d free=%d busy=%d", c.Size(), c.FreeUnclaimed(), c.Busy())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestAllocFreeAndRelease(t *testing.T) {
	c := New(8)
	set := c.AllocFree(0, 1, 3, nil)
	if len(set) != 3 {
		t.Fatalf("got %d procs", len(set))
	}
	if c.FreeUnclaimed() != 5 || c.Busy() != 3 {
		t.Errorf("free=%d busy=%d", c.FreeUnclaimed(), c.Busy())
	}
	for _, p := range set {
		if c.Owner(p) != 1 {
			t.Errorf("proc %d owner = %d", p, c.Owner(p))
		}
	}
	c.Release(10, 1, set)
	if c.FreeUnclaimed() != 8 || c.Busy() != 0 {
		t.Errorf("after release free=%d busy=%d", c.FreeUnclaimed(), c.Busy())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreePanicsWhenShort(t *testing.T) {
	c := New(4)
	c.AllocFree(0, 1, 3, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.AllocFree(0, 2, 2, nil)
}

func TestAllocSetLocalRestart(t *testing.T) {
	c := New(8)
	set := c.AllocFree(0, 1, 4, nil)
	c.Release(5, 1, set)
	// Job 1 restarts on exactly its old set.
	if !c.SetFree(1, set) {
		t.Fatal("set should be free")
	}
	c.AllocSet(10, 1, set)
	for _, p := range set {
		if c.Owner(p) != 1 {
			t.Errorf("proc %d owner = %d", p, c.Owner(p))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSetPanicsWhenOwned(t *testing.T) {
	c := New(8)
	set := c.AllocFree(0, 1, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.AllocSet(0, 2, set)
}

func TestClaimFlow(t *testing.T) {
	c := New(8)
	victim := c.AllocFree(0, 1, 4, nil) // job 1 running on 4 procs
	free := c.AllocFree(0, 2, 0, nil)
	_ = free
	// Job 9 claims 2 free procs and job 1's 4 procs (being suspended).
	freeProcs := []int{4, 5}
	c.Claim(9, freeProcs)
	c.Claim(9, victim)
	if c.FreeUnclaimed() != 2 { // procs 6,7 remain
		t.Errorf("free = %d, want 2", c.FreeUnclaimed())
	}
	if c.SetFree(9, append(append([]int{}, freeProcs...), victim...)) {
		t.Error("claim should not be ready while victim owns procs")
	}
	// Victim's suspension write completes: release.
	c.Release(30, 1, victim)
	all := append(append([]int{}, freeProcs...), victim...)
	if !c.SetFree(9, all) {
		t.Fatal("claim should be ready after victim release")
	}
	// Released-but-claimed procs must NOT be in the free pool.
	if c.FreeUnclaimed() != 2 {
		t.Errorf("free = %d, want 2 (claims excluded)", c.FreeUnclaimed())
	}
	c.AllocSet(30, 9, all)
	if c.Busy() != 6 {
		t.Errorf("busy = %d, want 6", c.Busy())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleClaimPanics(t *testing.T) {
	c := New(4)
	c.Claim(1, []int{0})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Claim(2, []int{0})
}

func TestUnclaimReturnsToPool(t *testing.T) {
	c := New(4)
	c.Claim(1, []int{0, 1})
	if c.FreeUnclaimed() != 2 {
		t.Fatalf("free = %d", c.FreeUnclaimed())
	}
	c.Unclaim(1, []int{0, 1})
	if c.FreeUnclaimed() != 4 {
		t.Errorf("free = %d, want 4", c.FreeUnclaimed())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetFreeRespectsForeignClaims(t *testing.T) {
	c := New(4)
	c.Claim(7, []int{2})
	if c.SetFree(1, []int{2}) {
		t.Error("foreign claim should block SetFree")
	}
	if !c.SetFree(7, []int{2}) {
		t.Error("own claim should not block SetFree")
	}
}

func TestUtilizationIntegral(t *testing.T) {
	c := New(10)
	set := c.AllocFree(0, 1, 5, nil) // 5 busy from t=0
	c.Release(100, 1, set)           // ... to t=100
	u := c.Utilization(0, 200)
	want := 5.0 * 100 / (10 * 200)
	if diff := u - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("utilization = %v, want %v", u, want)
	}
}

func TestUtilizationEmptyWindow(t *testing.T) {
	c := New(4)
	if c.Utilization(10, 10) != 0 {
		t.Error("empty window should be 0")
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	c := New(4)
	c.AllocFree(100, 1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.AllocFree(50, 2, 1, nil)
}

func TestBestFitContiguousAllocation(t *testing.T) {
	c := New(16)
	c.SetAllocPolicy(BestFitContiguous)
	// Occupy [4,8) and [12,14): free runs are [0,4), [8,12), [14,16).
	c.AllocFree(0, 1, 0, nil) // no-op
	c.AllocSet(0, 10, []int{4, 5, 6, 7})
	c.AllocSet(0, 11, []int{12, 13})
	// A 2-proc job best-fits the smallest run ≥ 2: [14,16).
	got := c.AllocFree(0, 2, 2, nil)
	if got[0] != 14 || got[1] != 15 {
		t.Errorf("2-proc best-fit = %v, want [14 15]", got)
	}
	// A 4-proc job now best-fits [0,4) or [8,12): both length 4; the
	// scan returns the first.
	got = c.AllocFree(0, 3, 4, nil)
	if got[0] != 0 || got[3] != 3 {
		t.Errorf("4-proc best-fit = %v, want [0..3]", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBestFitFallsBackToScatter(t *testing.T) {
	c := New(8)
	c.SetAllocPolicy(BestFitContiguous)
	// Fragment: occupy 1, 3, 5 → free runs all length ≤ 2.
	c.AllocSet(0, 10, []int{1, 3, 5})
	got := c.AllocFree(0, 2, 4, nil) // no contiguous run of 4: scatter
	want := []int{0, 2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scatter fallback = %v, want %v", got, want)
		}
	}
}

func TestBestFitRespectsClaims(t *testing.T) {
	c := New(8)
	c.SetAllocPolicy(BestFitContiguous)
	c.Claim(9, []int{0, 1, 2, 3})
	got := c.AllocFree(0, 1, 4, nil)
	if got[0] != 4 {
		t.Errorf("claimed processors must not be allocated: %v", got)
	}
}

// Randomized torture: interleave alloc/claim/release/unclaim and check
// invariants after every step.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(32)
	type held struct {
		id  int
		set []int
	}
	var running []held
	var claims []held
	now := int64(0)
	nextID := 1
	for step := 0; step < 2000; step++ {
		now += int64(rng.Intn(3))
		switch op := rng.Intn(4); {
		case op == 0 && c.FreeUnclaimed() > 0: // alloc
			k := 1 + rng.Intn(c.FreeUnclaimed())
			set := c.AllocFree(now, nextID, k, nil)
			running = append(running, held{nextID, set})
			nextID++
		case op == 1 && len(running) > 0: // release
			i := rng.Intn(len(running))
			c.Release(now, running[i].id, running[i].set)
			running = append(running[:i], running[i+1:]...)
		case op == 2: // claim some unclaimed free procs
			var avail []int
			for p := 0; p < c.Size(); p++ {
				if c.Owner(p) == -1 && c.Claimant(p) == -1 {
					avail = append(avail, p)
				}
			}
			if len(avail) == 0 {
				continue
			}
			k := 1 + rng.Intn(len(avail))
			c.Claim(nextID, avail[:k])
			claims = append(claims, held{nextID, avail[:k]})
			nextID++
		case op == 3 && len(claims) > 0: // unclaim
			i := rng.Intn(len(claims))
			c.Unclaim(claims[i].id, claims[i].set)
			claims = append(claims[:i], claims[i+1:]...)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
