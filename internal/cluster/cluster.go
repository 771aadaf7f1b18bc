// Package cluster models the machine: a fixed set of named processors
// with ownership tracking, a claim mechanism for pending preemptive
// starts, and a busy-time integral for utilization accounting.
//
// Processor identity matters because the paper studies "local" preemption
// on distributed-memory clusters: a suspended job must be restarted on
// exactly the processors it was suspended on (Section II-C). Claims exist
// because a preempting job must not lose its victims' processors to a
// third job while the victims' memory images are still being written out.
package cluster

import (
	"fmt"
	"math/bits"
)

const (
	none = -1 // owner/claim sentinel: no job
)

// AllocPolicy selects how AllocFree picks processors.
type AllocPolicy int

const (
	// FirstFit takes the lowest-indexed free processors (the default).
	FirstFit AllocPolicy = iota
	// BestFitContiguous places the job in the smallest contiguous free
	// run that holds it, falling back to scattered first-fit when no
	// single run is large enough. Contiguity matters under *local*
	// preemptive restart: scattered remembered sets overlap more, so
	// suspended jobs serialize; compact sets conflict less (cf. the
	// authors' selective buddy allocation work).
	BestFitContiguous
)

// Cluster tracks ownership and claims for n processors. Processors are
// identified by dense indices [0, n).
type Cluster struct {
	n      int
	policy AllocPolicy
	owner  []int  // processor -> owning job ID, or none
	claim  []int  // processor -> claiming job ID, or none
	down   []bool // processor -> failed (out of service)
	// free has bit p%64 of word p/64 set iff processor p is up, unowned
	// and unclaimed; bits at and beyond n are always clear. Placement and
	// listing walk its words lowest index first, skipping taken
	// processors 64 at a time.
	free []uint64

	upCount       int // processors in service
	freeUnclaimed int // up processors with neither owner nor claim

	// Busy-time integral for utilization: busyAccum accumulates
	// (owned processors) × seconds as ownership changes over time.
	busyAccum int64
	busyCount int
	lastTime  int64
}

// New returns a cluster of n processors, all free.
func New(n int) *Cluster {
	if n < 1 {
		panic("cluster: need at least one processor")
	}
	c := &Cluster{n: n, owner: make([]int, n), claim: make([]int, n),
		down: make([]bool, n), free: make([]uint64, (n+63)/64), upCount: n, freeUnclaimed: n}
	for i := range c.owner {
		c.owner[i] = none
		c.claim[i] = none
		c.setFree(i)
	}
	return c
}

// setFree and clearFree set and clear processor p's bit in the
// free-unclaimed bitmap.
func (c *Cluster) setFree(p int)   { c.free[p>>6] |= 1 << (p & 63) }
func (c *Cluster) clearFree(p int) { c.free[p>>6] &^= 1 << (p & 63) }

// isFree reports whether processor p is up, unowned and unclaimed.
func (c *Cluster) isFree(p int) bool { return c.free[p>>6]&(1<<(p&63)) != 0 }

// next returns the lowest processor at or after p that is
// free-unclaimed, or with taken set the lowest that is down, owned or
// claimed; n when there is none. The bits from n on are clear, so a
// walk for a taken processor stops at n at the latest.
func (c *Cluster) next(p int, taken bool) int {
	var flip uint64
	if taken {
		flip = ^flip
	}
	for i := p >> 6; i < len(c.free); i++ {
		w := c.free[i] ^ flip
		if i == p>>6 {
			w &= ^uint64(0) << (p & 63)
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return c.n
}

// Size returns the number of processors in the machine.
func (c *Cluster) Size() int { return c.n }

// SetAllocPolicy switches the free-processor placement policy.
func (c *Cluster) SetAllocPolicy(p AllocPolicy) { c.policy = p }

// FreeUnclaimed returns the number of in-service processors that are
// neither owned nor claimed — the pool available for fresh allocations.
func (c *Cluster) FreeUnclaimed() int { return c.freeUnclaimed }

// Up reports whether processor p is in service.
func (c *Cluster) Up(p int) bool { return !c.down[p] }

// UpCount returns the number of in-service processors — the effective
// machine size under fault injection.
func (c *Cluster) UpCount() int { return c.upCount }

// Busy returns the number of processors currently owned by jobs.
func (c *Cluster) Busy() int { return c.busyCount }

// Owner returns the job owning processor p, or -1.
func (c *Cluster) Owner(p int) int { return c.owner[p] }

// Claimant returns the job claiming processor p, or -1.
func (c *Cluster) Claimant(p int) int { return c.claim[p] }

// advance accumulates the busy integral up to time now. All mutating
// operations take now so utilization stays exact.
func (c *Cluster) advance(now int64) {
	if now < c.lastTime {
		panic(fmt.Sprintf("cluster: time moved backwards %d -> %d", c.lastTime, now))
	}
	c.busyAccum += int64(c.busyCount) * (now - c.lastTime)
	c.lastTime = now
}

// Fail takes processor p out of service. Ownership and claims are left
// in place — the scheduler driver kills the owner and aborts claimants
// immediately after — but p leaves the free-unclaimed pool and no new
// allocation will touch it until Repair.
func (c *Cluster) Fail(now int64, p int) {
	if c.down[p] {
		panic(fmt.Sprintf("cluster: processor %d failed while already down", p))
	}
	c.advance(now)
	c.down[p] = true
	c.upCount--
	if c.isFree(p) {
		c.freeUnclaimed--
		c.clearFree(p)
	}
}

// Repair returns processor p to service and to the free-unclaimed pool.
func (c *Cluster) Repair(now int64, p int) {
	if !c.down[p] {
		panic(fmt.Sprintf("cluster: processor %d repaired while up", p))
	}
	if c.owner[p] != none || c.claim[p] != none {
		panic(fmt.Sprintf("cluster: processor %d repaired while owned by %d / claimed by %d",
			p, c.owner[p], c.claim[p]))
	}
	c.advance(now)
	c.down[p] = false
	c.upCount++
	c.freeUnclaimed++
	c.setFree(p)
}

// AllocFree allocates k processors for job id from the free-unclaimed
// pool and appends them to dst, in ascending order, returning the
// extended slice: the lowest-indexed ones under FirstFit, the smallest
// contiguous run that holds k under BestFitContiguous. It allocates
// nothing when dst has room for k more. It panics if fewer than k are
// available — callers must check FreeUnclaimed first.
func (c *Cluster) AllocFree(now int64, id, k int, dst []int) []int {
	if k > c.freeUnclaimed {
		panic(fmt.Sprintf("cluster: job %d wants %d processors, %d free", id, k, c.freeUnclaimed))
	}
	c.advance(now)
	n := len(dst)
	if c.policy == BestFitContiguous {
		if start := c.bestFitRun(k); start >= 0 {
			for p := start; p < start+k; p++ {
				dst = append(dst, p)
			}
		}
	}
	if len(dst) == n {
		dst = c.ListFreeUnclaimed(k, dst)
	}
	for _, p := range dst[n:] {
		c.owner[p] = id
		c.clearFree(p)
	}
	c.freeUnclaimed -= k
	c.busyCount += k
	return dst
}

// bestFitRun returns the start of the smallest contiguous free-unclaimed
// run of length ≥ k, or -1 when none exists.
func (c *Cluster) bestFitRun(k int) int {
	bestStart, bestLen := -1, c.n+1
	for start := c.next(0, false); start < c.n; {
		end := c.next(start, true)
		if l := end - start; l >= k && l < bestLen {
			bestStart, bestLen = start, l
		}
		start = c.next(end, false)
	}
	return bestStart
}

// AllocSet gives job id ownership of exactly the processors in set. Each
// processor must be unowned, and either unclaimed or claimed by id (the
// claim is consumed). This is the local-restart path: a suspended job
// reacquires its remembered set.
func (c *Cluster) AllocSet(now int64, id int, set []int) {
	for _, p := range set {
		if c.owner[p] != none {
			panic(fmt.Sprintf("cluster: processor %d owned by %d, wanted by %d", p, c.owner[p], id))
		}
		if c.claim[p] != none && c.claim[p] != id {
			panic(fmt.Sprintf("cluster: processor %d claimed by %d, wanted by %d", p, c.claim[p], id))
		}
		if c.down[p] {
			panic(fmt.Sprintf("cluster: processor %d allocated to %d while down", p, id))
		}
	}
	c.advance(now)
	for _, p := range set {
		if c.claim[p] == id {
			c.claim[p] = none
		} else {
			c.freeUnclaimed--
			c.clearFree(p)
		}
		c.owner[p] = id
	}
	c.busyCount += len(set)
}

// Release frees the processors in set, which must all be owned by id.
// Claimed processors stay claimed (reserved for the claimant) and do not
// return to the free-unclaimed pool.
func (c *Cluster) Release(now int64, id int, set []int) {
	c.advance(now)
	for _, p := range set {
		if c.owner[p] != id {
			panic(fmt.Sprintf("cluster: release of processor %d by non-owner %d (owner %d)", p, id, c.owner[p]))
		}
		c.owner[p] = none
		if c.claim[p] == none && !c.down[p] {
			c.freeUnclaimed++
			c.setFree(p)
		}
	}
	c.busyCount -= len(set)
}

// Claim reserves the processors in set for job id. Each processor must
// be up and unclaimed; it may be owned (by a job that is being
// suspended) or free. Free processors leave the free-unclaimed pool
// immediately.
func (c *Cluster) Claim(id int, set []int) {
	for _, p := range set {
		if c.claim[p] != none {
			panic(fmt.Sprintf("cluster: processor %d already claimed by %d, wanted by %d", p, c.claim[p], id))
		}
		if c.down[p] {
			panic(fmt.Sprintf("cluster: processor %d claimed by %d while down", p, id))
		}
	}
	for _, p := range set {
		c.claim[p] = id
		if c.owner[p] == none {
			c.freeUnclaimed--
			c.clearFree(p)
		}
	}
}

// Unclaim drops job id's claims on set (used if a pending start is
// abandoned). Unowned processors return to the free pool.
func (c *Cluster) Unclaim(id int, set []int) {
	for _, p := range set {
		if c.claim[p] != id {
			panic(fmt.Sprintf("cluster: unclaim of processor %d by non-claimant %d", p, id))
		}
		c.claim[p] = none
		if c.owner[p] == none && !c.down[p] {
			c.freeUnclaimed++
			c.setFree(p)
		}
	}
}

// SetFree reports whether every processor in set is up, unowned and not
// claimed by another job — the condition for a suspended job (id) to
// restart locally without preemption, and for a pending start (id),
// which claims its whole set, to proceed. A down processor in a pending
// claim blocks activation until the driver aborts the pending start as
// part of its failure handling.
func (c *Cluster) SetFree(id int, set []int) bool {
	for _, p := range set {
		if c.owner[p] != none || c.down[p] {
			return false
		}
		if c.claim[p] != none && c.claim[p] != id {
			return false
		}
	}
	return true
}

// ListFreeUnclaimed appends to dst up to k processors that are
// unowned and unclaimed, lowest indices first, without allocating them,
// and returns the extended slice.
func (c *Cluster) ListFreeUnclaimed(k int, dst []int) []int {
	n := len(dst)
	for i := 0; i < len(c.free) && len(dst)-n < k; i++ {
		for w := c.free[i]; w != 0 && len(dst)-n < k; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// BusyIntegral returns the accumulated processor-seconds of ownership up
// to time now.
func (c *Cluster) BusyIntegral(now int64) int64 {
	c.advance(now)
	return c.busyAccum
}

// Utilization returns the fraction of capacity used over [start, end].
func (c *Cluster) Utilization(start, end int64) float64 {
	if end <= start {
		return 0
	}
	return float64(c.BusyIntegral(end)) / float64(int64(c.n)*(end-start))
}
