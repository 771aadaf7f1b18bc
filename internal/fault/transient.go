// Transient I/O fault model: deterministic per-processor streams that
// can fail a suspend-image write or a restart-image read. The paper's
// preemption mechanism moves memory images to and from the *local
// disks* of a job's processors (Section V-A); this layer models the
// storage path failing transiently, so the scheduler driver can retry
// with bounded exponential backoff in virtual time and, past the
// attempt cap, kill-and-requeue the job.
//
// Determinism: draws are counter-based — the k-th draw for processor p
// is a pure function of (seed, p, k) — and each processor's counter is
// consumed strictly in that processor's operation order, so the fault
// pattern is independent of scheduling policy and of how operations on
// different processors interleave globally.
package fault

// Default retry/backoff and health-window parameters, applied when the
// corresponding TransientConfig field is zero.
const (
	// DefaultMaxAttempts is the per-operation attempt cap: the initial
	// try plus retries. The fourth consecutive failure is terminal.
	DefaultMaxAttempts = 4
	// DefaultBackoffBase is the virtual-time delay before the first
	// retry, in seconds; each further retry doubles it.
	DefaultBackoffBase = 30
	// DefaultBackoffCap bounds the exponential backoff delay, seconds.
	DefaultBackoffCap = 480
	// DefaultHealthWindow is the sliding window, in seconds of virtual
	// time, over which per-processor I/O failures are counted.
	DefaultHealthWindow = 3600
	// DefaultHealthThreshold is the windowed failure count at which a
	// processor is considered I/O-degraded.
	DefaultHealthThreshold = 3
)

// TransientConfig parameterizes transient suspend/restart I/O fault
// injection for one run. The zero value disables injection entirely and
// leaves the engine byte-identical to a build without the subsystem.
// Like Config, its JSON names are the serialized form of the knobs, all
// omitempty.
type TransientConfig struct {
	// WriteFailProb is the per-processor probability that one
	// suspend-image write operation fails on that processor.
	WriteFailProb float64 `json:"io_write_fail,omitempty"`
	// ReadFailProb is the per-processor probability that one
	// restart-image read operation fails on that processor.
	ReadFailProb float64 `json:"io_read_fail,omitempty"`
	// Seed seeds the per-processor draw streams. Two runs with equal
	// TransientConfig sample identical fault patterns.
	Seed int64 `json:"io_seed,omitempty"`
	// MaxAttempts caps attempts per operation (initial try + retries);
	// 0 means DefaultMaxAttempts. An operation failing on its final
	// attempt is terminal: the job is killed and requeued.
	MaxAttempts int `json:"io_max_attempts,omitempty"`
	// BackoffBase is the delay before the first retry in seconds of
	// virtual time (0 = DefaultBackoffBase); each retry doubles it.
	BackoffBase int64 `json:"io_backoff_base,omitempty"`
	// BackoffCap bounds the backoff delay (0 = DefaultBackoffCap).
	BackoffCap int64 `json:"io_backoff_cap,omitempty"`
	// FailFirst makes the first FailFirst draws of every processor fail
	// deterministically before the probabilistic regime begins — a test
	// mode for pinning exact retry/exhaustion sequences (e.g. "the
	// fault stream dries up mid-retry").
	FailFirst int `json:"io_fail_first,omitempty"`
	// HealthWindow is the sliding failure-count window in seconds
	// (0 = DefaultHealthWindow).
	HealthWindow int64 `json:"io_health_window,omitempty"`
	// HealthThreshold is the windowed failure count marking a processor
	// I/O-degraded (0 = DefaultHealthThreshold).
	HealthThreshold int `json:"io_health_thresh,omitempty"`
}

// Enabled reports whether the configuration injects any transient
// faults.
func (c TransientConfig) Enabled() bool {
	return c.WriteFailProb > 0 || c.ReadFailProb > 0 || c.FailFirst > 0
}

// Attempts returns the effective per-operation attempt cap.
func (c TransientConfig) Attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

// Backoff returns the virtual-time delay, in seconds, before the retry
// following the given failed attempt (attempt counts from 1): base for
// the first failure, doubling per failure, bounded by the cap.
func (c TransientConfig) Backoff(attempt int) int64 {
	base := c.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := c.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// Window returns the effective health window in seconds.
func (c TransientConfig) Window() int64 {
	if c.HealthWindow > 0 {
		return c.HealthWindow
	}
	return DefaultHealthWindow
}

// Threshold returns the effective degradation threshold.
func (c TransientConfig) Threshold() int {
	if c.HealthThreshold > 0 {
		return c.HealthThreshold
	}
	return DefaultHealthThreshold
}

// TransientInjector draws per-processor transient I/O fault outcomes.
// Build a fresh one per run (sched.RunContext does) — the per-processor
// draw counters are stateful.
type TransientInjector struct {
	cfg   TransientConfig
	draws []int // per-processor draw counter
}

// NewTransientInjector returns an injector for cfg. It is valid (and
// never fails anything) when cfg is disabled; callers gate on Enabled.
func NewTransientInjector(cfg TransientConfig) *TransientInjector {
	return &TransientInjector{cfg: cfg}
}

// Config returns the injector's configuration.
func (in *TransientInjector) Config() TransientConfig { return in.cfg }

// failNext consumes processor p's next draw against prob.
func (in *TransientInjector) failNext(p int, prob float64) bool {
	for len(in.draws) <= p {
		in.draws = append(in.draws, 0)
	}
	k := in.draws[p]
	in.draws[p]++
	if k < in.cfg.FailFirst {
		return true
	}
	if prob <= 0 {
		return false
	}
	return unit(in.cfg.Seed, p, k) < prob
}

// FailingWrite draws one write-failure sample per processor of set, in
// set order, and returns the failing subset (sharing set's order).
func (in *TransientInjector) FailingWrite(set []int) []int {
	return in.failing(set, in.cfg.WriteFailProb)
}

// FailingRead draws one read-failure sample per processor of set, in
// set order, and returns the failing subset.
func (in *TransientInjector) FailingRead(set []int) []int {
	return in.failing(set, in.cfg.ReadFailProb)
}

func (in *TransientInjector) failing(set []int, prob float64) []int {
	var out []int
	for _, p := range set {
		if in.failNext(p, prob) {
			out = append(out, p)
		}
	}
	return out
}

// unit maps the k-th draw of processor p under seed to [0, 1): a
// splitmix64 finalizer over (seed, p, k), scaled. The streams are
// mutually independent across processors and stable under any global
// event interleaving.
func unit(seed int64, p, k int) float64 {
	z := uint64(seed) ^ 0x6a09e667f3bcc909
	z += 0x9e3779b97f4a7c15 * uint64(p+1)
	z += 0xc2b2ae3d27d4eb4f * uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
