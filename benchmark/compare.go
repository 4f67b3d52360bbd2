package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type comparison struct {
	workload, metric string
	old, new         float64
	// change is (new-old)/old with the sign turned so that positive is
	// an improvement whatever the metric's direction.
	change, spread, bound float64
	verdict               string
}

// compareValues applies a metric's direction and bound to the medians
// of two sets of runs. A row whose run-to-run spread (quartile distance
// over median, on either side) is wider than the bound is unresolved:
// the medians cannot be told apart at that resolution, and calling it
// "same" would hide a regression as easily as a gain. A set with a
// single run has no spread to show.
func compareValues(spec metricSpec, workload string, old, new []float64) comparison {
	c := comparison{workload: workload, metric: spec.Name, old: median(old), new: median(new), bound: spec.Bound}
	c.spread = max(quartileSpread(old), quartileSpread(new))
	if c.old != 0 {
		c.change = (c.new - c.old) / c.old
	}
	if spec.Better == "lower" {
		c.change = -c.change
	}
	switch {
	case c.spread > c.bound:
		c.verdict = verdictUnresolved
	case c.change < -c.bound:
		c.verdict = verdictWorse
	case c.change > c.bound:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictSame
	}
	return c
}

// compareSets compares every (workload, end-to-end metric) pair of two
// result sets over their untraced runs.
func compareSets(spec *benchmarkSpec, old, new *resultSet) ([]comparison, error) {
	values := func(set *resultSet, workload, metric string) ([]float64, error) {
		var out []float64
		for _, r := range set.Runs {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			v, ok := r.Metrics[metric]
			if !ok {
				return nil, fmt.Errorf("%s: a run does not report %s", workload, metric)
			}
			out = append(out, v.Value)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("workload %s has no untraced run", workload)
		}
		return out, nil
	}
	var rows []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, err := values(old, w.Name, m.Name)
			if err != nil {
				return nil, fmt.Errorf("old set: %w", err)
			}
			n, err := values(new, w.Name, m.Name)
			if err != nil {
				return nil, fmt.Errorf("new set: %w", err)
			}
			rows = append(rows, compareValues(m, w.Name, o, n))
		}
	}
	return rows, nil
}

// compareFiles prints one row per (workload, metric) and fails when any
// row is worse.
func compareFiles(w io.Writer, spec *benchmarkSpec, oldPath, newPath string) error {
	var old, new resultSet
	if err := loadJSON(oldPath, &old); err != nil {
		return err
	}
	if err := loadJSON(newPath, &new); err != nil {
		return err
	}
	rows, err := compareSets(spec, &old, &new)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tspread\tbound\tverdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.old, r.new, r.change*100, r.spread*100, r.bound*100, r.verdict)
		if r.verdict == verdictWorse {
			worse++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound allows", worse)
	}
	return nil
}
