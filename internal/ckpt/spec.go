package ckpt

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"

	"pjs/internal/fault"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// Workload kinds.
const (
	// KindSynthetic regenerates a trace from a named model and seed.
	KindSynthetic = "synthetic"
	// KindSWF re-reads a Standard Workload Format file, verified
	// against a content fingerprint.
	KindSWF = "swf"
)

// WorkloadSpec is the provenance of a trace — enough to rebuild the
// byte-identical workload on resume. Synthetic traces are pinned by
// (model, jobs, seed, estimates); SWF traces by path plus an FNV-1a
// fingerprint of the raw file bytes, so an edited trace file is
// detected instead of silently resumed against different input. Load
// is the arrival-scale factor applied after generation (1 or 0 = the
// original trace).
type WorkloadSpec struct {
	Kind      string  `json:"kind"`
	Model     string  `json:"model,omitempty"`
	Jobs      int     `json:"jobs,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Estimates string  `json:"estimates,omitempty"`
	Load      float64 `json:"load,omitempty"`
	File      string  `json:"file,omitempty"`
	FileHash  uint64  `json:"file_hash,omitempty"`
}

// String renders the spec for operator diagnostics.
func (w *WorkloadSpec) String() string {
	switch w.Kind {
	case KindSynthetic:
		return fmt.Sprintf("%s jobs=%d seed=%d estimates=%s load=%g",
			w.Model, w.Jobs, w.Seed, w.Estimates, w.loadFactor())
	case KindSWF:
		return fmt.Sprintf("%s (swf, fingerprint %016x) load=%g", w.File, w.FileHash, w.loadFactor())
	}
	return fmt.Sprintf("unknown workload kind %q", w.Kind)
}

func (w *WorkloadSpec) loadFactor() float64 {
	if w.Load == 0 {
		return 1
	}
	return w.Load
}

// Build rebuilds the trace the spec describes. For an SWF workload the
// file fingerprint is verified when already set and recorded when not
// (the first build of a fresh run), so that a later resume of the
// saved spec proves it is replaying the same input bytes.
func (w *WorkloadSpec) Build() (*workload.Trace, error) {
	var t *workload.Trace
	switch w.Kind {
	case KindSynthetic:
		m, ok := workload.ModelByName(w.Model)
		if !ok {
			return nil, fmt.Errorf("unknown model %q (want CTC, SDSC or KTH)", w.Model)
		}
		est := workload.EstimateAccurate
		switch w.Estimates {
		case "", "accurate":
		case "inaccurate":
			est = workload.EstimateInaccurate
		default:
			return nil, fmt.Errorf("unknown estimate mode %q (want accurate or inaccurate)", w.Estimates)
		}
		if w.Jobs <= 0 {
			return nil, fmt.Errorf("synthetic workload needs a positive job count, got %d", w.Jobs)
		}
		t = workload.Generate(m, workload.GenOptions{Jobs: w.Jobs, Seed: w.Seed, Estimates: est})
	case KindSWF:
		data, err := os.ReadFile(w.File)
		if err != nil {
			return nil, err
		}
		sum := HashBytes(data)
		if w.FileHash != 0 && sum != w.FileHash {
			return nil, fmt.Errorf("trace file %s changed since the checkpoint was written (fingerprint %016x, checkpoint says %016x)",
				w.File, sum, w.FileHash)
		}
		w.FileHash = sum
		t, err = workload.ReadSWF(bytes.NewReader(data), w.File)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	if f := w.loadFactor(); f != 1 {
		t = t.ScaleLoad(f)
	}
	return t, nil
}

// HashBytes fingerprints a byte slice with FNV-1a (64-bit) — used for
// SWF file identity in checkpoints.
func HashBytes(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data) // a hash.Hash never returns an error
	return h.Sum64()
}

// OptSpec is the checkpointable subset of sched.Options — the
// simulation-affecting knobs, in plain serializable form. Output and
// instrumentation options (Audit, Observer) are deliberately absent:
// they do not influence the deterministic event stream, so a resumed
// run may pick its own. The fault configurations are embedded whole;
// their omitempty JSON tags (package fault) keep a checkpoint without
// faults in the byte format it had before fault injection existed.
type OptSpec struct {
	// Overhead enables the paper's disk suspension/restart cost model.
	Overhead bool `json:"overhead,omitempty"`
	// Contiguous enables best-fit contiguous placement.
	Contiguous bool `json:"contiguous,omitempty"`
	// MaxSteps bounds the run (0 = no limit).
	MaxSteps int64 `json:"max_steps,omitempty"`
	fault.Config
	fault.TransientConfig
}

// Options expands the spec into runnable sched.Options.
func (o OptSpec) Options() sched.Options {
	opt := sched.Options{
		ContiguousAlloc: o.Contiguous,
		MaxSteps:        o.MaxSteps,
		Transient:       o.TransientConfig,
	}
	if o.Overhead {
		opt.Overhead = overhead.Disk{}
	}
	// Older psim checkpoints carry fault_seed even with fault injection
	// off; a disabled Config expands to the zero value either way.
	if o.Config.Enabled() {
		opt.Faults = o.Config
	}
	return opt
}
