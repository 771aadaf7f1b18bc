package experiment

import (
	"fmt"

	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/policy"
	"pjs/internal/report"
	"pjs/internal/sched"
	"pjs/internal/stats"
	"pjs/internal/workload"
)

// registerMainFigs covers Figures 7–18: the accurate-estimate evaluation
// of SS against NS and IS (averages, worst cases, and the TSS tuning).
func registerMainFigs() {
	type spec struct {
		id, model string
		metric    catMetric
		columns   []column
	}
	ssCols := cols(SS(1.5), SS(2), SS(5), NS(), IS())
	worstCols := cols(SS(2), NS(), IS())
	tssCols := cols(SS(2), TSS(2), NS(), IS())
	specs := []spec{
		{"fig7", "CTC", meanSD, ssCols},
		{"fig8", "CTC", meanTAT, ssCols},
		{"fig9", "SDSC", meanSD, ssCols},
		{"fig10", "SDSC", meanTAT, ssCols},
		{"fig11", "CTC", worstSD, worstCols},
		{"fig12", "CTC", worstTAT, worstCols},
		{"fig13", "CTC", worstSD, tssCols},
		{"fig14", "CTC", worstTAT, tssCols},
		{"fig15", "SDSC", worstSD, worstCols},
		{"fig16", "SDSC", worstTAT, worstCols},
		{"fig17", "SDSC", worstSD, tssCols},
		{"fig18", "SDSC", worstTAT, tssCols},
	}
	for _, s := range specs {
		s := s
		title := fmt.Sprintf("Figure %s: %s, SS scheme, %s trace (accurate estimates)",
			s.id[3:], s.metric.name, s.model)
		register(s.id, title, func(r *Runner) Renderable {
			return categoryTable(r, title, s.model, workload.EstimateAccurate,
				s.columns, s.metric, metrics.All)
		})
	}
}

// registerEstimateFigs covers Figures 19–30: inaccurate user estimates,
// with the all/well/badly-estimated splits of Section V. The tuned
// (TSS) variants are used, as the paper states after Section IV-E.
func registerEstimateFigs() {
	type spec struct {
		id, model string
		metric    catMetric
		filter    metrics.Filter
	}
	specs := []spec{
		{"fig19", "CTC", meanSD, metrics.All},
		{"fig20", "CTC", meanSD, metrics.WellEstimated},
		{"fig21", "CTC", meanSD, metrics.BadlyEstimated},
		{"fig22", "CTC", meanTAT, metrics.All},
		{"fig23", "CTC", meanTAT, metrics.WellEstimated},
		{"fig24", "CTC", meanTAT, metrics.BadlyEstimated},
		{"fig25", "SDSC", meanSD, metrics.All},
		{"fig26", "SDSC", meanSD, metrics.WellEstimated},
		{"fig27", "SDSC", meanSD, metrics.BadlyEstimated},
		{"fig28", "SDSC", meanTAT, metrics.All},
		{"fig29", "SDSC", meanTAT, metrics.WellEstimated},
		{"fig30", "SDSC", meanTAT, metrics.BadlyEstimated},
	}
	columns := cols(TSS(1.5), TSS(2), TSS(5), NS(), IS())
	for _, s := range specs {
		s := s
		title := fmt.Sprintf("Figure %s: %s of %s jobs, inaccurate estimates, %s trace",
			s.id[3:], s.metric.name, s.filter, s.model)
		register(s.id, title, func(r *Runner) Renderable {
			return categoryTable(r, title, s.model, workload.EstimateInaccurate,
				columns, s.metric, s.filter)
		})
	}
}

// registerOverheadFigs covers Figures 31–34: the Section V-A
// suspension/restart overhead model (memory image to local disk at
// 2 MB/s per processor) barely dents the tuned scheme.
func registerOverheadFigs() {
	type spec struct {
		id, model string
		metric    catMetric
	}
	specs := []spec{
		{"fig31", "CTC", meanSD},
		{"fig32", "CTC", meanTAT},
		{"fig33", "SDSC", meanSD},
		{"fig34", "SDSC", meanTAT},
	}
	for _, s := range specs {
		s := s
		columns := []column{
			{Scheme: TSS(2), Label: "SF = 2"},
			{Scheme: TSS(2), OH: true, Label: "SF = 2 OH"},
			{Scheme: NS()},
			{Scheme: IS()},
		}
		title := fmt.Sprintf("Figure %s: %s with suspension/restart overhead, %s trace",
			s.id[3:], s.metric.name, s.model)
		register(s.id, title, func(r *Runner) Renderable {
			return categoryTable(r, title, s.model, workload.EstimateInaccurate,
				columns, s.metric, metrics.All)
		})
	}
}

// registerAblations adds non-paper sanity/ablation experiments for the
// design choices DESIGN.md calls out.
func registerAblations() {
	register("ablation-widthrule", "Ablation: the half-width fairness rule (Section IV-B)", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2)},
			{Scheme: SSNoWidthRule(2)},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Ablation: SS(SF=2) with and without the half-width rule (SDSC, avg slowdown)",
			"SDSC", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-adaptive", "Ablation: two-pass vs adaptive TSS limits", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: TSS(2)},
			{Scheme: TSSAdaptive(2)},
			{Scheme: SS(2)},
		}
		return categoryTable(r,
			"Ablation: TSS limit sources (CTC, worst-case slowdown)",
			"CTC", workload.EstimateAccurate, columns, worstSD, metrics.All)
	})
	register("ablation-baselines", "Background baselines: FCFS vs conservative vs EASY", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: FCFS()},
			{Scheme: Conservative()},
			{Scheme: NS(), Label: "EASY"},
		}
		return categoryTable(r,
			"Baselines: nonpreemptive policies (CTC, avg slowdown)",
			"CTC", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-migration", "Ablation: local restart vs migratable restart", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2), Label: "SF = 2 local"},
			{Scheme: SSMig(2)},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Ablation: the cost of the local-restart constraint (SDSC, avg slowdown)",
			"SDSC", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-gang", "Extension: gang scheduling vs backfilling vs SS (with overhead)", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: Gang(600), OH: true},
			{Scheme: Gang(3600), OH: true},
			{Scheme: SS(2), OH: true, Label: "SF = 2 OH"},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Extension: gang scheduling under the Section V-A overhead model (SDSC, avg slowdown)",
			"SDSC", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-alloc", "Extension: placement locality under local restart (first-fit vs contiguous)", func(r *Runner) Renderable {
		tr := r.Trace("SDSC", workload.EstimateAccurate, 130)
		t := report.NewTable(
			"Extension: allocation policy for SS(SF=2) at load 1.3 (SDSC)",
			[]string{"overall mean slowdown", "loaded utilization %", "full-span utilization %", "suspensions"},
			[]string{"first-fit", "best-fit contiguous"})
		for col, contig := range []bool{false, true} {
			res, err := r.run(tr, policy.SS.New(2), policy.SS.Label(2)+" "+t.ColLabels[col], sched.Options{ContiguousAlloc: contig})
			if err != nil {
				panic(err)
			}
			sum := metrics.FromResult(res, metrics.All)
			t.Set(0, col, sum.Overall.MeanSlowdown)
			t.Set(1, col, 100*res.UtilizationLoaded)
			t.Set(2, col, 100*res.Utilization)
			t.Set(3, col, float64(res.Suspensions))
		}
		t.Note = "compact processor sets overlap less, easing suspended jobs' exact-set reentry"
		return t
	})
	register("replication-ci", "Extension: cross-seed replication with 95% confidence intervals", func(r *Runner) Renderable {
		seeds := []int64{11, 22, 33, 44, 55}
		schemes := []Scheme{NS(), IS(), SS(2), SS(1.5)}
		t := report.NewTable(
			"Cross-seed replication (SDSC, accurate estimates, 5 seeds): overall slowdown and loaded utilization",
			[]string{"mean slowdown", "± 95% CI", "loaded util %", "± 95% CI "},
			schemeLabels(schemes))
		base := r.Config()
		base.Seed = 0 // replaced per seed
		for col, sc := range schemes {
			reps := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, sc, false,
				OverallMeanSlowdown, LoadedUtilizationPct)
			sd, ut := reps[0], reps[1]
			t.Set(0, col, sd.Mean)
			t.Set(1, col, sd.CI95)
			t.Set(2, col, ut.Mean)
			t.Set(3, col, ut.CI95)
		}
		t.Note = "each seed is an independent synthetic trace; runs execute in parallel"
		return t
	})
	register("ablation-estimates", "Extension: estimate models (exact vs multiplicative vs modal round values)", func(r *Runner) Renderable {
		type col struct {
			label string
			est   workload.EstimateMode
			sc    Scheme
		}
		columns := []col{
			{"NS exact", workload.EstimateAccurate, NS()},
			{"NS inacc", workload.EstimateInaccurate, NS()},
			{"NS modal", workload.EstimateModal, NS()},
			{"SS2 exact", workload.EstimateAccurate, SS(2)},
			{"SS2 inacc", workload.EstimateInaccurate, SS(2)},
			{"SS2 modal", workload.EstimateModal, SS(2)},
		}
		labels := make([]string, len(columns))
		for i, c := range columns {
			labels[i] = c.label
		}
		t := report.NewTable(
			"Extension: estimate-model sensitivity (SDSC, avg slowdown)",
			catRowLabels(), labels)
		cats := job.AllCategories()
		for ci, c := range columns {
			sum := r.Summary("SDSC", c.est, 100, c.sc, false, metrics.All)
			for ri, cat := range cats {
				if cs := sum.Cat(cat); cs.Count > 0 {
					t.Set(ri, ci, cs.MeanSlowdown)
				}
			}
		}
		t.Note = "modal = estimates snapped to round wall-clock values (Tsafrir et al.)"
		return t
	})
	register("ablation-variance", "Extension: tail (P95) slowdown — the variance TSS is built to control", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2)},
			{Scheme: TSS(2)},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Extension: 95th-percentile slowdown (CTC, accurate estimates)",
			"CTC", workload.EstimateAccurate, columns, p95SD, metrics.All)
	})
	register("kth-sanity", "KTH trace sanity: the paper's third log shows the same trends", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2)},
			{Scheme: NS()},
			{Scheme: IS()},
		}
		return categoryTable(r,
			"KTH model: SS vs NS vs IS (avg slowdown) — 'similar performance trends with all three traces'",
			"KTH", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-depth", "Extension: reservation-depth backfilling spectrum (EASY → conservative)", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: DepthBF(1), Label: "Depth 1 (EASY)"},
			{Scheme: DepthBF(2)},
			{Scheme: DepthBF(8)},
			{Scheme: Conservative()},
		}
		return categoryTable(r,
			"Extension: reservation depth (CTC, inaccurate estimates, avg slowdown)",
			"CTC", workload.EstimateInaccurate, columns, meanSD, metrics.All)
	})
	register("ablation-maxsusp", "Ablation: suspension-count limit (Chiang et al.) vs SF rate control", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2)},
			{Scheme: SSOnce(2)},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Ablation: at-most-one-suspension vs unlimited SF-controlled suspension (SDSC, avg slowdown)",
			"SDSC", workload.EstimateAccurate, columns, meanSD, metrics.All)
	})
	register("ablation-speculative", "Extension: speculative backfilling and the aborted-job metric skew (Section V)", func(r *Runner) Renderable {
		tr := workload.AbortStress(40)
		t := report.NewTable(
			"Speculative backfilling on the abort-stress workload (mean bounded slowdown)",
			[]string{"aborting jobs", "normal jobs", "whole trace"},
			[]string{"EASY", "SpecBF", "TSS(SF=2 adaptive)"},
		)
		for col, s := range []sched.Scheduler{
			policy.NS.New(0), policy.SpecBF.New(policy.SpecBF.Arg.Default), policy.TSS.New(2),
		} {
			res, err := r.run(tr, s, tr.Name+" "+t.ColLabels[col], sched.Options{})
			if err != nil {
				panic(err)
			}
			var a, n stats.Acc
			for _, j := range res.Jobs {
				sd := metrics.BoundedSlowdown(j)
				if j.RunTime == 120 {
					a.Add(sd)
				} else {
					n.Add(sd)
				}
			}
			all := a.Mean()*float64(a.N()) + n.Mean()*float64(n.N())
			t.Set(0, col, a.Mean())
			t.Set(1, col, n.Mean())
			t.Set(2, col, all/float64(a.N()+n.N()))
		}
		t.Note = "the whole-trace average moves almost entirely through the aborting jobs — " +
			"the paper's Section V argument for splitting metrics by estimate quality"
		return t
	})
	register("ablation-tss-seed", "Ablation: TSS limit seeding (SS-pass vs NS-pass averages)", func(r *Runner) Renderable {
		columns := []column{
			{Scheme: SS(2)},
			{Scheme: TSS(2)},
			{Scheme: TSSFromNS(2)},
			{Scheme: NS()},
		}
		return categoryTable(r,
			"Ablation: TSS limit seeding (CTC, worst-case slowdown)",
			"CTC", workload.EstimateAccurate, columns, worstSD, metrics.All)
	})
}
