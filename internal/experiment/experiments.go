package experiment

import (
	"fmt"
	"strings"

	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/report"
	"pjs/internal/theory"
	"pjs/internal/workload"
)

// Renderable is anything an experiment can output.
type Renderable interface {
	Render() string
	CSV() string
}

// Text is a plain-text result.
type Text string

// Render implements Renderable.
func (t Text) Render() string { return string(t) }

// CSV implements Renderable (plain text has no tabular form).
func (t Text) CSV() string { return "" }

// Group bundles several results (multi-panel figures).
type Group []Renderable

// Render implements Renderable.
func (g Group) Render() string {
	var b strings.Builder
	for i, r := range g {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.Render())
	}
	return b.String()
}

// CSV implements Renderable.
func (g Group) CSV() string {
	var b strings.Builder
	for _, r := range g {
		if c := r.CSV(); c != "" {
			b.WriteString(c)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Experiment reproduces one paper table or figure.
type Experiment struct {
	// ID is the paper's numbering: "table4", "fig7", …
	ID string
	// Title describes the experiment (from the paper's caption).
	Title string
	// Run executes it.
	Run func(r *Runner) Renderable
}

var registry []Experiment

func register(id, title string, run func(r *Runner) Renderable) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	return out
}

// ByID looks an experiment up by its paper number.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// schemeLabels extracts column labels from schemes.
func schemeLabels(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Label
	}
	return out
}

// catRowLabels returns the 16 category names in table order.
func catRowLabels() []string {
	cats := job.AllCategories()
	rows := make([]string, len(cats))
	for i, c := range cats {
		rows[i] = c.String()
	}
	return rows
}

// column is one scheme column of a category table; OH runs the scheme
// under the disk overhead model.
type column struct {
	Scheme Scheme
	OH     bool
	Label  string // optional override
}

func (c column) label() string {
	if c.Label != "" {
		return c.Label
	}
	if c.OH {
		return c.Scheme.Label + " OH"
	}
	return c.Scheme.Label
}

func cols(schemes ...Scheme) []column {
	out := make([]column, len(schemes))
	for i, s := range schemes {
		out[i] = column{Scheme: s}
	}
	return out
}

// catMetric extracts one number from a category cell.
type catMetric struct {
	name string
	get  func(metrics.CatStats) float64
}

var (
	meanSD   = catMetric{"average slowdown", func(c metrics.CatStats) float64 { return c.MeanSlowdown }}
	meanTAT  = catMetric{"average turnaround time (s)", func(c metrics.CatStats) float64 { return c.MeanTurnaround }}
	worstSD  = catMetric{"worst-case slowdown", func(c metrics.CatStats) float64 { return c.WorstSlowdown }}
	worstTAT = catMetric{"worst-case turnaround time (s)", func(c metrics.CatStats) float64 { return c.WorstTurnaround }}
	p95SD    = catMetric{"95th-percentile slowdown", func(c metrics.CatStats) float64 { return c.P95Slowdown }}
)

// categoryTable builds a 16-category × schemes table of one metric.
func categoryTable(r *Runner, title, model string, est workload.EstimateMode,
	columns []column, m catMetric, f metrics.Filter) *report.Table {

	labels := make([]string, len(columns))
	for i, c := range columns {
		labels[i] = c.label()
	}
	t := report.NewTable(title, catRowLabels(), labels)
	cats := job.AllCategories()
	for col, c := range columns {
		sum := r.Summary(model, est, 100, c.Scheme, c.OH, f)
		for ci, cat := range cats {
			if cs := sum.Cat(cat); cs.Count > 0 {
				t.Set(ci, col, m.get(cs))
			}
		}
	}
	t.Note = fmt.Sprintf("model=%s estimates=%s filter=%s jobs=%d",
		model, est, f, r.Config().Jobs)
	return t
}

// distributionTable reproduces Tables II/III: percentage of jobs per
// category.
func distributionTable(r *Runner, title, model string) *report.Table {
	tr := r.Trace(model, workload.EstimateAccurate, 100)
	d := tr.DistributionTable()
	rows := []string{"0 - 10 min", "10 min - 1 hr", "1 hr - 8 hr", "> 8 hr"}
	cls := []string{"1 Proc", "2-8 Procs", "9-32 Procs", "> 32 Procs"}
	t := report.NewTable(title, rows, cls)
	t.Precision = 1
	for l := 0; l < 4; l++ {
		for w := 0; w < 4; w++ {
			t.Set(l, w, 100*d[l][w])
		}
	}
	t.Note = fmt.Sprintf("percent of jobs; model=%s jobs=%d", model, r.Config().Jobs)
	return t
}

// nsSlowdownTable reproduces Tables IV/V: per-category average slowdown
// under non-preemptive aggressive backfilling with accurate estimates.
func nsSlowdownTable(r *Runner, title, model string) *report.Table {
	sum := r.Summary(model, workload.EstimateAccurate, 100, NS(), false, metrics.All)
	rows := []string{"0 - 10 min", "10 min - 1 hr", "1 hr - 8 hr", "> 8 hr"}
	cls := []string{"1 Proc", "2-8 Procs", "9-32 Procs", "> 32 Procs"}
	t := report.NewTable(title, rows, cls)
	for l := job.Length(0); l < job.NumLengths; l++ {
		for w := job.Width(0); w < job.NumWidths; w++ {
			cs := sum.Cat(job.Category{Length: l, Width: w})
			if cs.Count == 0 {
				continue
			}
			t.Set(int(l), int(w), cs.MeanSlowdown)
		}
	}
	t.Note = fmt.Sprintf("overall slowdown = %.2f; model=%s", sum.Overall.MeanSlowdown, model)
	return t
}

func init() {
	register("table1", "Job categorization criteria", func(*Runner) Renderable {
		var b strings.Builder
		b.WriteString("Run-time classes:\n")
		for l := job.Length(0); l < job.NumLengths; l++ {
			lo, hi := l.Range()
			if hi < 0 {
				fmt.Fprintf(&b, "  %-3s > %d s\n", l, lo)
			} else {
				fmt.Fprintf(&b, "  %-3s (%d, %d] s\n", l, lo, hi)
			}
		}
		b.WriteString("Width classes:\n")
		for w := job.Width(0); w < job.NumWidths; w++ {
			lo, hi := w.Range()
			if hi < 0 {
				fmt.Fprintf(&b, "  %-3s > %d processors\n", w, lo-1)
			} else {
				fmt.Fprintf(&b, "  %-3s %d-%d processors\n", w, lo, hi)
			}
		}
		return Text(b.String())
	})

	register("table2", "Job distribution by category - CTC trace", func(r *Runner) Renderable {
		return distributionTable(r, "Table II: job distribution by category (CTC, %)", "CTC")
	})
	register("table3", "Job distribution by category - SDSC trace", func(r *Runner) Renderable {
		return distributionTable(r, "Table III: job distribution by category (SDSC, %)", "SDSC")
	})
	register("table4", "Average slowdown per category, nonpreemptive - CTC", func(r *Runner) Renderable {
		return nsSlowdownTable(r, "Table IV: average slowdown, nonpreemptive scheduling (CTC)", "CTC")
	})
	register("table5", "Average slowdown per category, nonpreemptive - SDSC", func(r *Runner) Renderable {
		return nsSlowdownTable(r, "Table V: average slowdown, nonpreemptive scheduling (SDSC)", "SDSC")
	})

	registerTheoryFigs()
	registerMainFigs()
	registerEstimateFigs()
	registerOverheadFigs()
	registerLoadFigs()
	registerCoarseTables()
	registerAblations()
	registerFailureSweep()
	registerTransientSweep()
}

func registerTheoryFigs() {
	mk := func(id, caption string, sf float64) {
		register(id, caption, func(*Runner) Renderable {
			tl := theory.TwoTask(3600, sf, 60)
			txt := tl.Render(72)
			return Text(fmt.Sprintf("%s\n%s(two identical 3600 s tasks, 60 s preemption granularity)\n",
				caption, txt))
		})
	}
	mk("fig4", "Execution pattern of two equal tasks, SF = 1", 1)
	mk("fig5", "Execution pattern of two equal tasks, 1 < SF ≤ √2 (SF = 1.3)", 1.3)
	mk("fig6", "Execution pattern of two equal tasks, SF = 2", 2)
}

func registerCoarseTables() {
	register("table6", "Job categorization criteria for load variation", func(*Runner) Renderable {
		return Text("Short (S): run time ≤ 1 hr    Long (L): run time > 1 hr\n" +
			"Narrow (N): ≤ 8 processors    Wide (W): > 8 processors\n")
	})
	coarse := func(id, title, model string) {
		register(id, title, func(r *Runner) Renderable {
			tr := r.Trace(model, workload.EstimateAccurate, 100)
			d := tr.DistributionTable4()
			t := report.NewTable(title, []string{"<= 1 Hr", "> 1 Hr"}, []string{"<= 8 Procs", "> 8 Procs"})
			t.Precision = 1
			for l := 0; l < 2; l++ {
				for w := 0; w < 2; w++ {
					t.Set(l, w, 100*d[l][w])
				}
			}
			t.Note = "percent of jobs"
			return t
		})
	}
	coarse("table7", "4-category distribution - CTC", "CTC")
	coarse("table8", "4-category distribution - SDSC", "SDSC")
}
