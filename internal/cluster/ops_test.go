package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveFree reports, from the owner, claim and down arrays alone,
// whether processor p is up, unowned and unclaimed.
func naiveFree(c *Cluster, p int) bool {
	return c.owner[p] == none && c.claim[p] == none && !c.down[p]
}

// naiveList returns up to k free-unclaimed processors, lowest first.
func naiveList(c *Cluster, k int) []int {
	out := []int{}
	for p := 0; p < c.n && len(out) < k; p++ {
		if naiveFree(c, p) {
			out = append(out, p)
		}
	}
	return out
}

// naiveLongestRun returns the length of the longest contiguous run of
// free-unclaimed processors.
func naiveLongestRun(c *Cluster) int {
	longest, run := 0, 0
	for p := 0; p < c.n; p++ {
		if naiveFree(c, p) {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}

// naivePlace returns the processors AllocFree(k) must take under
// policy: the smallest contiguous free run that holds k (the lowest
// such run on ties) under BestFitContiguous, else the k lowest free.
func naivePlace(c *Cluster, policy AllocPolicy, k int) []int {
	if policy == BestFitContiguous {
		bestStart, bestLen := -1, c.n+1
		for p := 0; p < c.n; {
			if !naiveFree(c, p) {
				p++
				continue
			}
			end := p
			for end < c.n && naiveFree(c, end) {
				end++
			}
			if l := end - p; l >= k && l < bestLen {
				bestStart, bestLen = p, l
			}
			p = end
		}
		if bestStart >= 0 {
			out := []int{}
			for p := bestStart; p < bestStart+k; p++ {
				out = append(out, p)
			}
			return out
		}
	}
	return naiveList(c, k)
}

// clone returns an independent copy of c.
func clone(c *Cluster) *Cluster {
	d := *c
	d.owner, d.claim = slices.Clone(c.owner), slices.Clone(c.claim)
	d.down, d.free = slices.Clone(c.down), slices.Clone(c.free)
	return &d
}

// group is a job and the processors it owns or claims.
type group struct {
	id  int
	set []int
}

// pick returns up to k processors for which ok holds, taking every
// step-th processor from start round the machine.
func pick(c *Cluster, start, step, k int, ok func(p int) bool) []int {
	var out []int
	for i, p := 0, start; i < c.n && len(out) < k; i, p = i+1, (p+step)%c.n {
		if ok(p) && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// callerBuf returns a buffer for a call that appends k processors,
// shaped by sel: nil, empty with room for k, or holding a prefix of
// sentinels with room for k more or, for k > 0, one too few.
func callerBuf(sel, k int) []int {
	pre := sel % 3
	room := k
	switch sel / 3 % 4 {
	case 0:
		return nil
	case 1:
		pre = 0
	case 3:
		room = max(k-1, 0)
	}
	buf := make([]int, pre, pre+room)
	for i := range buf {
		buf[i] = -2 - i
	}
	return buf
}

// appended checks that out, what call returned for buf, is buf
// extended: the prefix kept and, when buf had room for what was
// appended, buf's own storage. It returns the appended processors.
func appended(t *testing.T, op int, call string, buf, out []int) []int {
	t.Helper()
	if len(out) < len(buf) || !slices.Equal(out[:len(buf)], buf) {
		t.Fatalf("op %d: %s into %v returned %v, which does not extend it", op, call, buf, out)
	}
	if len(out) > len(buf) && len(out) <= cap(buf) && &out[0] != &buf[:1][0] {
		t.Fatalf("op %d: %s reallocated a buffer with room for %d processors", op, call, len(out)-len(buf))
	}
	return out[len(buf):]
}

// checkOps decodes data into a sequence of Fail, Repair, AllocFree
// (both policies), AllocSet, Release, Claim and Unclaim on a machine of
// 1, 63, 64, 65, 128 or 430 processors, the sizes at and around the
// bitmap's word edges plus CTC's. Each operation is made valid for the
// current state. After each one, AllocFree on a copy under both
// policies and ListFreeUnclaimed must match a naive scan of the owner,
// claim and down arrays, and CheckInvariants must hold. Every AllocFree
// and ListFreeUnclaimed appends into a caller's buffer (callerBuf),
// which it must extend in place when it has room.
func checkOps(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	sizes := []int{1, 63, 64, 65, 128, 430}
	c := New(sizes[int(data[0])%len(sizes)])
	n := c.n
	var owned, claimed []group
	nextID := 1
	for op, b := 0, data[1:]; len(b) >= 3; op, b = op+1, b[3:] {
		now := int64(op)
		x, y := int(b[1]), int(b[2])
		at := (x<<8 | y) % n
		switch b[0] % 8 {
		case 0: // Fail
			if c.Up(at) {
				c.Fail(now, at)
			}
		case 1: // Repair
			if set := pick(c, at, 1, 1, func(p int) bool { return c.down[p] && c.owner[p] == none && c.claim[p] == none }); len(set) > 0 {
				c.Repair(now, set[0])
			}
		case 2, 3: // AllocFree, first-fit or best-fit contiguous
			if c.FreeUnclaimed() == 0 {
				break
			}
			policy := AllocPolicy(b[0] % 8 % 2)
			c.SetAllocPolicy(policy)
			k := 1 + x%c.FreeUnclaimed()
			want := naivePlace(c, policy, k)
			buf := callerBuf(y, k)
			got := appended(t, op, "AllocFree", buf, c.AllocFree(now, nextID, k, buf))
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: AllocFree(%d) under policy %d = %v, want %v", op, k, policy, got, want)
			}
			owned = append(owned, group{nextID, got})
			nextID++
		case 4: // AllocSet: a ready claim group, or free processors
			if len(claimed) > 0 && x%2 == 0 {
				i := y % len(claimed)
				if g := claimed[i]; c.SetFree(g.id, g.set) {
					c.AllocSet(now, g.id, g.set)
					owned = append(owned, g)
					claimed = slices.Delete(claimed, i, i+1)
				}
				break
			}
			if set := pick(c, at, 1+x%5, 1+y%8, func(p int) bool { return naiveFree(c, p) }); len(set) > 0 {
				c.AllocSet(now, nextID, set)
				owned = append(owned, group{nextID, set})
				nextID++
			}
		case 5: // Release
			if len(owned) > 0 {
				i := y % len(owned)
				c.Release(now, owned[i].id, owned[i].set)
				owned = slices.Delete(owned, i, i+1)
			}
		case 6: // Claim up, unclaimed processors, owned or free
			if set := pick(c, at, 1+x%7, 1+y%8, func(p int) bool { return !c.down[p] && c.claim[p] == none }); len(set) > 0 {
				c.Claim(nextID, set)
				claimed = append(claimed, group{nextID, set})
				nextID++
			}
		case 7: // Unclaim
			if len(claimed) > 0 {
				i := y % len(claimed)
				c.Unclaim(claimed[i].id, claimed[i].set)
				claimed = slices.Delete(claimed, i, i+1)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d (%d): %v", op, b[0]%8, err)
		}
		free := naiveList(c, n)
		if c.FreeUnclaimed() != len(free) {
			t.Fatalf("op %d: FreeUnclaimed = %d, naive count %d", op, c.FreeUnclaimed(), len(free))
		}
		for _, k := range []int{0, 1 + x%n, n} {
			buf := callerBuf(x^y, k)
			if got, want := appended(t, op, "ListFreeUnclaimed", buf, c.ListFreeUnclaimed(k, buf)), naiveList(c, k); !slices.Equal(got, want) {
				t.Fatalf("op %d: ListFreeUnclaimed(%d) = %v, want %v", op, k, got, want)
			}
		}
		if len(free) == 0 {
			continue
		}
		// A random width, and the widths at the edge of the best-fit
		// fallback: the longest free run and one more.
		longest := naiveLongestRun(c)
		for _, k := range []int{1 + y%len(free), longest, min(longest+1, len(free))} {
			for _, policy := range []AllocPolicy{FirstFit, BestFitContiguous} {
				trial := clone(c)
				trial.SetAllocPolicy(policy)
				buf := callerBuf(x+k, k)
				if got, want := appended(t, op, "AllocFree", buf, trial.AllocFree(now, nextID, k, buf)), naivePlace(c, policy, k); !slices.Equal(got, want) {
					t.Fatalf("op %d: AllocFree(%d) on a copy under policy %d = %v, want %v", op, k, policy, got, want)
				}
				if err := trial.CheckInvariants(); err != nil {
					t.Fatalf("op %d: after AllocFree on a copy: %v", op, err)
				}
			}
		}
	}
}

// FuzzClusterOps runs checkOps on fuzzed operation sequences.
func FuzzClusterOps(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 2, 10, 0, 3, 20, 1, 0, 7, 0, 6, 3, 9, 2, 40, 2, 4, 0, 0, 1, 7, 0, 5, 1, 0})
	f.Add([]byte{2, 0, 0, 63, 2, 63, 0, 3, 1, 0, 6, 7, 60, 4, 0, 0, 1, 0, 63, 5, 0, 0, 2, 0, 1})
	f.Add([]byte{3, 2, 64, 0, 0, 0, 64, 3, 2, 0, 7, 0, 0, 6, 5, 1, 4, 1, 0, 2, 3, 0, 1, 0, 64})
	f.Add([]byte{4, 0, 0, 127, 2, 100, 0, 6, 8, 3, 3, 50, 0, 0, 0, 64, 5, 0, 0, 4, 0, 0, 7, 0, 0})
	f.Add([]byte{5, 2, 200, 7, 0, 1, 100, 0, 1, 200, 3, 90, 0, 6, 4, 17, 1, 1, 100, 4, 1, 0, 3, 60, 2, 5, 1, 0})
	f.Fuzz(checkOps)
}

// TestClusterOpsRandom runs checkOps on seeded random sequences of a
// few hundred operations on every machine size.
func TestClusterOpsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+3*(50+rng.Intn(250)))
		rng.Read(data)
		data[0] = byte(i)
		checkOps(t, data)
	}
}
