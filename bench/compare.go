package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one end-to-end metric's values over the untraced runs
// of one workload.
func (set resultSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareSets prints, per end-to-end metric and workload, both medians,
// how much worse b is than a as a share of a's median, the metric's
// bound, and each set's own quartile spread. It reports false when b is
// worse than a by more than a bound, or when a run of either set was
// not correct.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, set := range []resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "INCORRECT: %s seed %d: %v\n", r.Workload, r.Seed, r.Problems)
				ok = false
			}
		}
	}
	fmt.Fprintf(w, "a: %s (%s, commit %s)\nb: %s (%s, commit %s)\n", pathA, a.Env.GoVersion, a.Env.Commit, pathB, b.Env.GoVersion, b.Env.Commit)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "bound", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-22s missing from a set\n", wl.Name, d.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict, ok = "WORSE THAN BOUND", false
			case d.Name != "setup_s" && (spread(va) > d.Bound || spread(vb) > d.Bound):
				verdict = "unresolved: spread wider than bound"
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+7.2f%% %6.0f%% %8.2f%% %8.2f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	return ok, nil
}
