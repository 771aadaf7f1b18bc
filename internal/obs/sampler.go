package obs

import (
	"io"
	"strconv"

	"pjs/internal/sched"
)

// Sample is one time-series row: the machine state at the end of one
// virtual instant.
type Sample struct {
	Time             int64
	Busy             int // processors owned by jobs
	Queued           int
	Running          int
	Suspended        int
	MaxQueuedXFactor float64
}

// Sampler records a Sample at every engine event, coalescing events
// that share a virtual instant into the last (settled) state of that
// instant. It implements sched.Observer.
type Sampler struct {
	// Procs is the machine size, the denominator of the utilization
	// column.
	Procs int
	// Samples is the recorded series, strictly increasing in Time.
	Samples []Sample
}

// NewSampler returns an empty sampler for a machine of the given size.
func NewSampler(procs int) *Sampler {
	return &Sampler{Procs: procs}
}

// Observe implements sched.Observer.
func (s *Sampler) Observe(ev sched.Event) {
	smp := Sample{
		Time:             ev.Time,
		Busy:             ev.Busy,
		Queued:           ev.Queued,
		Running:          ev.Running,
		Suspended:        ev.Suspended,
		MaxQueuedXFactor: ev.MaxQueuedXFactor,
	}
	if n := len(s.Samples); n > 0 && s.Samples[n-1].Time == ev.Time {
		s.Samples[n-1] = smp
		return
	}
	s.Samples = append(s.Samples, smp)
}

// WriteCSV emits the series as CSV, one Write per row. Every write
// error is propagated: a truncated time series must fail loudly, not
// plot plausibly.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time,busy,utilization,queued,running,suspended,max_queued_xfactor\n"); err != nil {
		return err
	}
	row := make([]byte, 0, 128)
	for _, smp := range s.Samples {
		u := 0.0
		if s.Procs > 0 {
			u = float64(smp.Busy) / float64(s.Procs)
		}
		row = strconv.AppendInt(row[:0], smp.Time, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Busy), 10)
		row = append(row, ',')
		row = strconv.AppendFloat(row, u, 'f', 6, 64)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Queued), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Running), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Suspended), 10)
		row = append(row, ',')
		row = strconv.AppendFloat(row, smp.MaxQueuedXFactor, 'f', 6, 64)
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}
