package cluster

import "fmt"

// CheckInvariants validates internal consistency; tests call it after
// mutation sequences. It returns an error describing the first violation.
func (c *Cluster) CheckInvariants() error {
	free := 0
	busy := 0
	up := 0
	for p := 0; p < c.n; p++ {
		want := c.owner[p] == none && c.claim[p] == none && !c.down[p]
		if want {
			free++
		}
		if c.isFree(p) != want {
			return fmt.Errorf("cluster: free bit of processor %d is %v, want %v", p, !want, want)
		}
		if c.owner[p] != none {
			busy++
		}
		if !c.down[p] {
			up++
		}
	}
	if tail := c.n & 63; tail != 0 && c.free[len(c.free)-1]>>tail != 0 {
		return fmt.Errorf("cluster: free bitmap has bits set beyond processor %d", c.n-1)
	}
	if free != c.freeUnclaimed {
		return fmt.Errorf("cluster: freeUnclaimed=%d, recount=%d", c.freeUnclaimed, free)
	}
	if busy != c.busyCount {
		return fmt.Errorf("cluster: busyCount=%d, recount=%d", c.busyCount, busy)
	}
	if up != c.upCount {
		return fmt.Errorf("cluster: upCount=%d, recount=%d", c.upCount, up)
	}
	return nil
}
