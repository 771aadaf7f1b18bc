package ss

import (
	"errors"
	"slices"
	"testing"

	"pjs/internal/check"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// passMaximal wraps an SS scheduler and, after every hook that ends in
// a schedule pass, fails t if the pass left an idle job that can start
// without preemption: a suspended job under local restart whose whole
// remembered set is free, any other job that fits in the free
// processors. The rule is written out here rather than shared with the
// policy, so that a wrong filter in the pass cannot agree with itself.
//
// At every tick it also checks the kept state against references that
// work from nothing: every kept record must equal the one checkKept
// rebuilds, the horizon must equal the one refHorizon computes, no idle
// job that the tick's filter drops may be one that can start without
// preemption or one the reference selectors (refVictims) would commit,
// and each commit of the preemption routine must suspend exactly the
// victims the reference selectors choose on the live state, in the same
// order.
//
// The checks read an idle queue and a running list that passMaximal
// keeps from the hooks, as SS kept them before the driver did, and not
// the driver's sets, so that they stay a cross-check of those too.
type passMaximal struct {
	*Sched
	t     testing.TB
	hooks int
	ticks int
	drops int
	ref   refHorizon

	queue   []*job.Job // idle (fresh + suspended), excluding pending
	running []*job.Job // running or committed (pending starts)

	// fresh and reentry count the commits compared, by branch.
	fresh, reentry int
}

// OnTick checks the horizon and the tick's filter, then runs the tick
// as Sched.OnTick does, with the preemption routine of checkPass.
func (m *passMaximal) OnTick() {
	m.ticks++
	now := m.env.Now()
	h := m.horizon(now)
	if len(m.queue) > 0 {
		if err := checkKept(m.Sched, m.queue, m.running, now); err != nil {
			m.t.Fatalf("at %d: kept state: %v", now, err)
		}
	}
	if want := m.ref.horizon(m.Sched, m.queue, m.running, now); h != want {
		m.t.Fatalf("at %d: horizon %d, reference %d", now, h, want)
	}
	m.sortIdle()
	m.checkDropped(now)
	if now < h && m.env.QuietUntil(h) {
		return
	}
	m.checkPass(now)
	m.serveIdle()
	m.started()
}

// checkDropped fails t if the tick's filter (sortIdle) dropped an idle
// job that can start without preemption, or one that the reference
// selectors, run now, would commit.
func (m *passMaximal) checkDropped(now int64) {
	for _, j := range m.queue {
		if slices.Contains(m.idle, j) {
			continue
		}
		m.drops++
		if m.canStart(j) {
			m.t.Fatalf("at %d: the tick drops %v, which can start without preemption", now, j)
		}
		if victims := refVictims(m.Sched, m.running, j, now); len(victims) > 0 {
			m.t.Fatalf("at %d: the tick drops %v, but the reference would suspend %d jobs", now, j, len(victims))
		}
	}
}

// checkPass is preemptionPass with a check before each job: the
// victims the kept state commits the job with (choose) must be the
// ones the reference selectors choose on the live state, and a job
// that commits nothing must be one the reference would not commit.
func (m *passMaximal) checkPass(now int64) {
	kept := m.idle[:0]
	for _, j := range m.idle {
		want := refVictims(m.Sched, m.running, j, now)
		victims, claim := m.choose(j, now)
		if !slices.Equal(victims, want) {
			m.t.Fatalf("at %d: %v commits with victims %v, the reference with %v", now, j, jobIDs(victims), jobIDs(want))
		}
		if len(victims) == 0 {
			kept = append(kept, j)
			continue
		}
		if m.reenters(j) {
			m.reentry++
		} else {
			m.fresh++
		}
		for _, v := range victims {
			m.running = remove(m.running, v)
		}
		m.queue = remove(m.queue, j)
		m.running = append(m.running, j)
		m.commit(j, victims, claim)
	}
	m.idle = kept
}

// started moves the jobs of the queue that a schedule pass started or
// resumed to the running list.
func (m *passMaximal) started() {
	kept := m.queue[:0]
	for _, j := range m.queue {
		if j.State == job.Running {
			m.running = append(m.running, j)
		} else {
			kept = append(kept, j)
		}
	}
	m.queue = kept
}

// jobIDs returns the IDs of jobs.
func jobIDs(jobs []*job.Job) []int {
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// canStart reports whether idle job j can start without preemption: a
// suspended job under local restart when its whole remembered set is
// free, any other job when it fits in the free processors.
func (m *passMaximal) canStart(j *job.Job) bool {
	cl := m.env.Cluster
	if j.State == job.Suspended && !m.cfg.Migration {
		return cl.SetFree(j.ID, j.ProcSet)
	}
	return j.Procs <= cl.FreeUnclaimed()
}

func (m *passMaximal) OnArrival(j *job.Job) {
	m.queue = append(m.queue, j)
	m.Sched.OnArrival(j)
	m.check("arrival")
}

func (m *passMaximal) OnCompletion(j *job.Job) {
	m.running = remove(m.running, j)
	m.Sched.OnCompletion(j)
	m.check("completion")
}

func (m *passMaximal) OnSuspendDone(j *job.Job) {
	m.queue = append(m.queue, j)
	m.Sched.OnSuspendDone(j)
	m.check("suspend-done")
}

func (m *passMaximal) OnRepair(p int) { m.Sched.OnRepair(p); m.check("repair") }

func (m *passMaximal) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		m.running = remove(m.running, j)
		if !slices.Contains(m.queue, j) {
			m.queue = append(m.queue, j)
		}
	}
	m.Sched.OnFailure(p, requeued)
	m.check("failure")
}

// check books the jobs the hook's schedule pass started, then fails t
// if the pass left an idle job that can start without preemption.
func (m *passMaximal) check(hook string) {
	m.t.Helper()
	m.started()
	m.hooks++
	for _, j := range m.queue {
		if m.canStart(j) {
			m.t.Fatalf("at %d after %s: idle %v can start without preemption (%d processors free)",
				m.env.Now(), hook, j, m.env.Cluster.FreeUnclaimed())
		}
	}
}

// maximalModes are the fault settings the maximality test runs under:
// none, the processor failures of the faults-ns benchmark workload, and
// transient I/O faults with a finite health window, the one setting
// that restores degraded processors mid-run.
var maximalModes = []struct {
	name      string
	faults    fault.Config
	transient fault.TransientConfig
}{
	{name: "nofault"},
	{name: "fault", faults: fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}},
	{name: "restore", transient: fault.TransientConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthWindow: 3600, HealthThreshold: 1,
	}},
}

// TestPassMaximal checks, after every hook of SS:2, TSS:2 and the
// migratable SS:2 under each fault mode, that the event's schedule pass
// started every idle job that fits: the pass sorts and serves only the
// jobs that fit when it begins, and this is the property that makes
// that exact. At every tick it checks every kept record against a
// rebuild from nothing and the horizon against the reference, runs the
// reference selectors on every job the tick drops
// and compares every commit with them. It fails if the tick drops no
// job, or if no fresh commit — under local restart, no reentry commit
// either — was compared.
func TestPassMaximal(t *testing.T) {
	tr := ctcAtLoad(1000, 1, 2)
	configs := []struct {
		name string
		cfg  func() Config
	}{
		{"ss:2", func() Config { return Config{SF: 2} }},
		{"tss:2", func() Config { return Config{SF: 2, Limits: &AdaptiveLimits{}} }},
		{"ssmig:2", func() Config { return Config{SF: 2, Migration: true} }},
	}
	for _, c := range configs {
		for _, mode := range maximalModes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				m := &passMaximal{Sched: New(c.cfg()), t: t}
				res, err := sched.RunChecked(tr, m, sched.Options{
					Overhead:  overhead.Disk{},
					MaxSteps:  20_000_000,
					Faults:    mode.faults,
					Transient: mode.transient,
				})
				if err != nil {
					t.Fatalf("RunChecked: %v", err)
				}
				if res.Suspensions == 0 {
					t.Fatal("no job was suspended; suspend-done passes are untested")
				}
				if mode.faults.Enabled() && res.Tally.Failures == 0 {
					t.Fatal("no processor failed; failure and repair passes are untested")
				}
				if mode.transient.HealthWindow != 0 && res.IORestores == 0 {
					t.Fatal("no processor was restored to I/O health")
				}
				if m.drops == 0 {
					t.Fatal("the tick dropped no job; its filter is untested")
				}
				if m.fresh == 0 || m.reentry == 0 && !m.cfg.Migration {
					t.Fatalf("compared %d fresh and %d reentry commits; a branch is untested", m.fresh, m.reentry)
				}
				t.Logf("%d hooks and %d ticks checked, %d jobs dropped at ticks, %d fresh and %d reentry commits compared",
					m.hooks, m.ticks, m.drops, m.fresh, m.reentry)
			})
		}
	}
}

// FuzzPassMaximal runs an SS variant over a small trace decoded from
// the input, optionally under processor failures and transient I/O
// faults, and requires that the run finishes within its step bound,
// that its audit log passes the invariant checker, that every event's
// schedule pass is maximal, and that at every tick every kept record
// equals a rebuild from nothing, the horizon agrees with the reference,
// the filter drops no job the reference selectors would commit, and
// each commit suspends the victims they choose (passMaximal).
//
// The input is a header of three bytes — machine size (1..16), variant
// (kind in the low two bits, suspension factor in the next five, bit 7
// disables the half-width rule), and fault setting (odd enables
// failures; bit 3 enables transient I/O faults with a one-hour health
// window, so degraded processors recover; the rest scales MTBF, fault
// seeds and suspension overhead) — then four bytes per job: submit
// gap, run time, estimate slack and width. At most 48 jobs are
// decoded.
func FuzzPassMaximal(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 100, 0, 3, 1, 9, 0, 3})
	f.Add([]byte{8, 1, 0x47, 0, 200, 50, 7, 2, 10, 0, 2, 0, 30, 10, 5, 1, 5, 0, 8})
	f.Add([]byte{6, 2, 0x80, 0, 90, 0, 5, 1, 10, 20, 4, 0, 1, 0, 6, 3, 20, 5, 1})
	f.Add([]byte{16, 7, 33, 0, 250, 0, 16, 0, 2, 2, 3, 0, 2, 2, 13, 9, 90, 0, 7, 1, 40, 40, 16})
	// A 2-wide job suspends an 8-wide one only without the half-width rule.
	f.Add([]byte{8, 0x84, 0, 0, 200, 0, 7, 2, 0, 0, 1})
	// Image writes fail, degrade processors and recover an hour later.
	f.Add([]byte{4, 0x04, 0x48, 0, 100, 0, 3, 2, 0, 0, 1, 2, 0, 0, 1, 4, 100, 0, 3, 2, 0, 0, 1, 2, 0, 0, 1,
		4, 100, 0, 3, 2, 0, 0, 1, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3+4 {
			return
		}
		procs := 1 + int(data[0]%16)
		variant, faults := data[1], data[2]
		cfg := Config{
			SF:                   []float64{1.5, 2, 5}[int(variant>>2&31)%3],
			DisableHalfWidthRule: variant&0x80 != 0,
		}
		switch variant & 3 {
		case 1:
			cfg.Limits = &AdaptiveLimits{}
		case 2:
			cfg.Migration = true
		case 3:
			cfg.MaxSuspensions = 1
		}
		opt := sched.Options{Audit: true, Overhead: overhead.Disk{}, MaxSteps: 2_000_000}
		if faults&1 != 0 {
			opt.Faults = fault.Config{MTBF: int64(100+int(faults>>1)) * 3600, MTTR: 3600, Seed: int64(faults)}
		}
		if faults&8 != 0 {
			opt.Transient = fault.TransientConfig{
				WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: int64(faults),
				HealthWindow: 3600, HealthThreshold: 1,
			}
		}
		mem := int64(faults>>6) * 20 * overhead.PaperRateBps // up to 60 s of suspension write
		tr := &workload.Trace{Name: "fuzz", Procs: procs}
		submit := int64(0)
		for b := data[3:]; len(b) >= 4 && len(tr.Jobs) < 48; b = b[4:] {
			submit += int64(b[0]) * 30
			run := int64(1+int(b[1])) * 60
			j := job.New(len(tr.Jobs)+1, submit, run, run+int64(b[2])*60, 1+int(b[3])%procs)
			j.MemPerProc = mem
			tr.Jobs = append(tr.Jobs, j)
		}
		m := &passMaximal{Sched: New(cfg), t: t}
		res, err := sched.RunChecked(tr, m, opt)
		if errors.Is(err, sim.ErrMaxSteps) {
			t.Fatalf("run did not finish within %d steps", opt.MaxSteps)
		}
		if err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		if err := check.Check(res.Audit, check.Options{AllowMigration: cfg.Migration}); err != nil {
			t.Fatalf("audit log: %v", err)
		}
	})
}

// remove deletes j from list, keeping the order of the rest; a job not
// in list leaves it unchanged. The reference keeps its own lists and
// this helper rather than reading the driver's.
func remove(list []*job.Job, j *job.Job) []*job.Job {
	if i := slices.Index(list, j); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}
