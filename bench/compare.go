package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// exactCounts are the per-layer metrics that are pure functions of the
// seed: two traced sets of the same code must agree on them exactly.
var exactCounts = []string{"sim.events", "netem.pkts", "telemetry.events", "telemetry.ndjson_bytes", "sweep.jobs"}

// verdict applies a regression bound to two measurements of one
// end-to-end metric. worse is b's median against a's as a share of a's,
// positive when b is worse. When either side's quartile spread exceeds
// the bound the pair cannot be told apart at that bound, so it is
// unresolved rather than unchanged, unless b's quartiles all read better
// than a's.
func verdict(a, b metric, d metricDecl) (worse float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (b.Value - a.Value) / a.Value
	spread := max((a.P75-a.P25)/a.Value, (b.P75-b.P25)/b.Value)
	apart := b.P75 < a.P25
	if sign < 0 {
		apart = b.P25 > a.P75
	}
	switch {
	case spread > d.Bound && apart:
		return worse, "improved"
	case spread > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	case worse < -d.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints, for every workload the two documents share, one
// row per end-to-end metric (untraced documents) or per exact count
// (traced documents), and fails if anything regressed or differs.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	if a.Trace != b.Trace || a.Smoke != b.Smoke {
		return errors.New("the documents are not the same kind of run (traced/untraced, smoke/full)")
	}
	fmt.Fprintf(w, "a: %s seed %d  %s\nb: %s seed %d  %s\n", pathA, a.Seed, a.Env, pathB, b.Seed, b.Env)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		if a.Trace {
			for _, name := range exactCounts {
				va, vb := wa.Metrics[name].Value, wb.Metrics[name].Value
				v := "identical"
				if va != vb {
					v = "DIFFERS"
					bad++
				}
				fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%s\n", wa.Name, name, va, vb, v)
			}
			continue
		}
		fmt.Fprintf(tw, "workload\tmetric\ta median [p25, p75] n\tb median [p25, p75] n\tb worse by\tbound\tverdict\n")
		for _, d := range man.EndToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			worse, v := verdict(ma, mb, d)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.2f%%\t%.0f%%\t%s\n",
				wa.Name, d.Name, d.Unit, ma.Value, ma.P25, ma.P75, ma.N, mb.Value, mb.P25, mb.P75, mb.N, 100*worse, 100*d.Bound, v)
		}
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		v := "unchanged"
		if fb > fa {
			v = "regressed"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g (%d/%d)\t%.4g (%d/%d)\t\t0%%\t%s\n", wa.Name, fa, wa.Failed, wa.Attempted, fb, wb.Failed, wb.Attempted, v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) regressed or differ", bad)
	}
	return nil
}
