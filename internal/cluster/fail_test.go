package cluster

import (
	"slices"
	"testing"
)

func TestFailExcludesProcessorFromAllocation(t *testing.T) {
	c := New(4)
	c.Fail(0, 1)
	if c.UpCount() != 3 || c.Up(1) {
		t.Fatalf("UpCount=%d Up(1)=%v after Fail", c.UpCount(), c.Up(1))
	}
	if c.FreeUnclaimed() != 3 {
		t.Fatalf("FreeUnclaimed=%d, want 3", c.FreeUnclaimed())
	}
	got := c.AllocFree(0, 7, 3, nil)
	for _, p := range got {
		if p == 1 {
			t.Fatalf("AllocFree handed out down processor 1: %v", got)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailOfOwnedProcessorThenRelease(t *testing.T) {
	c := New(4)
	set := c.AllocFree(0, 9, 2, nil) // procs 0,1
	c.Fail(10, set[0])
	// The owner still holds the set until the driver kills it.
	if c.Owner(set[0]) != 9 {
		t.Fatalf("owner lost on failure: %d", c.Owner(set[0]))
	}
	c.Release(10, 9, set)
	// The down processor must not return to the free pool.
	if c.FreeUnclaimed() != 3 {
		t.Fatalf("FreeUnclaimed=%d after release, want 3", c.FreeUnclaimed())
	}
	c.Repair(20, set[0])
	if c.FreeUnclaimed() != 4 || c.UpCount() != 4 {
		t.Fatalf("after repair: free=%d up=%d, want 4,4", c.FreeUnclaimed(), c.UpCount())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailBlocksSetFree(t *testing.T) {
	c := New(4)
	set := []int{0, 1}
	c.Claim(5, set)
	c.Fail(0, 1)
	if c.SetFree(5, set) {
		t.Error("SetFree true over a down processor")
	}
	c.Unclaim(5, set)
	// Proc 0 returns to the pool, down proc 1 does not.
	if c.FreeUnclaimed() != 3 {
		t.Fatalf("FreeUnclaimed=%d after unclaim, want 3", c.FreeUnclaimed())
	}
	if got := c.ListFreeUnclaimed(4, nil); !slices.Equal(got, []int{0, 2, 3}) {
		t.Fatalf("ListFreeUnclaimed=%v, want the up procs [0 2 3]", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBestFitSkipsDownProcessors(t *testing.T) {
	c := New(8)
	c.SetAllocPolicy(BestFitContiguous)
	c.Fail(0, 2) // splits [0..7] into runs [0,1] and [3..7]
	got := c.AllocFree(0, 3, 2, nil)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("best fit chose %v, want the exact [0 1] run", got)
	}
}

func TestDoubleFailAndBadRepairPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := New(2)
	c.Fail(0, 0)
	mustPanic("double fail", func() { c.Fail(0, 0) })
	mustPanic("repair of up proc", func() { c.Repair(0, 1) })
	mustPanic("alloc-set of down proc", func() { c.AllocSet(0, 1, []int{0}) })
	mustPanic("claim of down proc", func() { c.Claim(1, []int{0}) })
}
