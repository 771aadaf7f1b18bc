package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"pjs/internal/cli"
)

// Verdicts of a comparison of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's samples from two reports. The change is
// the new median against the old, signed so that positive is worse. A
// spread (interquartile range over median) wider than the bound on
// either side leaves the comparison unresolved, unless every sample of
// one side beats every sample of the other.
func judge(m metric, old, cur []float64) (verdict string, worse float64) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(cur)
	worse = (nm - om) / om
	if m.better == "higher" {
		worse = -worse
	}
	spread := max((oq3-oq1)/om, (nq3-nq1)/nm)
	lo, hi := slices.Min(cur), slices.Max(cur)
	olo, ohi := slices.Min(old), slices.Max(old)
	separated := hi < olo || lo > ohi
	switch {
	case spread > m.bound && !separated:
		return verdictUnresolved, worse
	case worse > m.bound:
		return verdictRegressed, worse
	case -worse > m.bound:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

// loadReport reads and validates one report file.
func loadReport(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reportFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, this tool reads %q", path, r.Schema, schema)
	}
	for _, w := range r.Workloads {
		for _, m := range endToEnd {
			if len(w.Samples[m.name]) == 0 {
				return nil, fmt.Errorf("%s: workload %s has no %s samples", path, w.Name, m.name)
			}
		}
	}
	return &r, nil
}

// compareFiles prints, for every workload in both reports and every
// end-to-end metric, both medians with their quartiles, the change, the
// bound and the verdict, then the failed-cell shares. The output depends
// only on the two files. It exits 3 when a metric regressed or the share
// of failed cells grew.
func compareFiles(oldPath, newPath string, stdout, stderr *cli.W) int {
	oldR, err := loadReport(oldPath)
	if err != nil {
		stderr.Println("pjsperf:", err)
		return 1
	}
	newR, err := loadReport(newPath)
	if err != nil {
		stderr.Println("pjsperf:", err)
		return 1
	}
	if oldR.Env != newR.Env {
		stderr.Printf("pjsperf: warning: environments differ (old %+v, new %+v)\n", oldR.Env, newR.Env)
	}
	oldByName := map[string]workloadReport{}
	for _, w := range oldR.Workloads {
		oldByName[w.Name] = w
	}

	stdout.Printf("%-15s %-11s %-32s %-32s %8s %6s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	count := map[string]int{}
	failsUp := 0
	seen := map[string]bool{}
	for _, n := range newR.Workloads {
		o, ok := oldByName[n.Name]
		if !ok {
			stdout.Printf("%-15s only in %s\n", n.Name, newPath)
			continue
		}
		seen[n.Name] = true
		for _, m := range endToEnd {
			v, worse := judge(m, o.Samples[m.name], n.Samples[m.name])
			count[v]++
			stdout.Printf("%-15s %-11s %-32s %-32s %+7.1f%% %5.0f%%  %s\n", n.Name, m.name,
				medianQuartiles(o.Samples[m.name]), medianQuartiles(n.Samples[m.name]), 100*worse, 100*m.bound, v)
		}
		v := verdictOK
		if n.Failed*o.Attempted > o.Failed*n.Attempted {
			v = verdictRegressed
			failsUp++
		}
		stdout.Printf("%-15s %-11s %-32s %-32s %8s %6s  %s\n", n.Name, "failed",
			fmt.Sprintf("%d/%d", o.Failed, o.Attempted), fmt.Sprintf("%d/%d", n.Failed, n.Attempted), "", "", v)
	}
	for _, o := range oldR.Workloads {
		if !seen[o.Name] {
			stdout.Printf("%-15s only in %s\n", o.Name, oldPath)
		}
	}
	stdout.Printf("pjsperf: %d regressed, %d unresolved, %d improved, %d ok; failed cells grew on %d workloads\n",
		count[verdictRegressed], count[verdictUnresolved], count[verdictImproved], count[verdictOK], failsUp)
	if count[verdictRegressed] > 0 || failsUp > 0 {
		return 3
	}
	return 0
}

// medianQuartiles renders "median [q1, q3]".
func medianQuartiles(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
