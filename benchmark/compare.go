package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func loadReports(path string) (map[string]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*report
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := map[string]*report{}
	for _, r := range list {
		if r.Trace {
			continue // per-layer metrics have no bounds
		}
		byName[r.Workload] = r
	}
	return byName, nil
}

// compareFiles judges the reports saved in file b against those in file
// a (the base), one row per workload and metric — the end-to-end ones
// and the wall-clock speeds — against the metric's fixed bound. A row
// is regressed when b is worse than a by more than the bound, and
// unresolved when either side's own repeats disagreed by more than the
// bound — unless b is worse by more than bound plus noise, which noise
// cannot explain. It reports whether any row regressed or more
// operations failed. Two reports of one workload made from different
// inputs (seed, --seconds) or under different protocols (number of
// repeats) are refused, not compared.
func compareFiles(w io.Writer, a, b string) (regressed bool, err error) {
	base, err := loadReports(a)
	if err != nil {
		return false, err
	}
	cur, err := loadReports(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-8s %-24s %14s %14s %8s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, name := range workloadNames {
		ra, rb := base[name], cur[name]
		if ra == nil || rb == nil {
			if ra != nil || rb != nil {
				fmt.Fprintf(w, "%-8s present in only one file: regressed\n", name)
				regressed = true
			}
			continue
		}
		if na, nb := len(ra.Repeats["wall_kops"]), len(rb.Repeats["wall_kops"]); ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || na != nb {
			return false, fmt.Errorf("%s: a ran seed %d, %d seconds, %d repeats and b seed %d, %d seconds, %d repeats: not comparable",
				name, ra.Seed, ra.Seconds, na, rb.Seed, rb.Seconds, nb)
		}
		for _, d := range measured {
			x, y := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := ratio(y-x, x) // share of the base by which b is worse
			if d.Better == "higher" {
				worse = ratio(x-y, x)
			}
			noise := max(ra.NoisePct[d.Name], rb.NoisePct[d.Name]) / 100
			noisy := slices.Contains(ra.Noisy, d.Name) || slices.Contains(rb.Noisy, d.Name)
			verdict := "ok"
			switch {
			case worse > d.Bound && (!noisy || worse > d.Bound+noise):
				verdict = "regressed"
				regressed = true
			case noisy:
				verdict = fmt.Sprintf("unresolved (noise %.1f%%)", 100*noise)
			}
			fmt.Fprintf(w, "%-8s %-24s %14.6g %14.6g %8.4f %6.0f%%  %s\n", name, d.Name, x, y, ratio(y, x), 100*d.Bound, verdict)
		}
		ea, eb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if eb > ea {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-8s %-24s %14.6g %14.6g %8s %7s  %s\n", name, "error_rate", ea, eb, "", "0", verdict)
	}
	return regressed, nil
}
