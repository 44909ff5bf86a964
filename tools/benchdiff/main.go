// Command benchdiff compares two benchmark JSON files produced by
// tools/benchjson and fails when performance regressed:
//
//	go run ./tools/benchdiff [-threshold 0.10] [-counts 0.01] [-warn] old.json new.json
//
// For every benchmark present in both files it prints a delta table
// covering ns/op, allocs/op, B/op and each custom metric. These families
// of numbers gate the exit status:
//
//   - ns_per_op — lower is better; a relative increase beyond the
//     threshold is a regression.
//
//   - custom metrics whose unit ends in "/sec" (events/sec,
//     packets/sec) — higher is better; a relative decrease beyond the
//     threshold is a regression.
//
//   - custom metrics whose unit ends in "/event" (allocs/event) —
//     lower is better; a relative increase beyond the threshold is a
//     regression.
//
//   - with -counts, the rows that count rather than time — allocs/op,
//     B/op, "/event" metrics and heap-highwater, all lower-is-better —
//     gate at that tolerance instead of the threshold. They repeat
//     exactly from run to run on a deterministic simulation, so the
//     tolerance can be as tight as 1% on any host; without -counts only
//     the "/event" metrics gate (at the threshold), because a
//     micro-benchmark's amortized B/op moves with its iteration count.
//
// Other custom metrics (rr-Kbps, transfer-s, pool-hit-ratio, and
// heap-highwater without -counts) are shown for context but never gate,
// since their polarity is benchmark-specific. Benchmarks present in only one file are listed but do not
// gate either, so adding or retiring a benchmark never breaks the
// comparison. The reserved "_env" key benchjson writes (goos, goarch,
// cpu, GOMAXPROCS) is not a benchmark: it is skipped, and when the two
// files record different GOMAXPROCS a warning says so, because rows such
// as BenchmarkEngine/workers=N mean different things on different core
// counts. With -warn the table and verdict still print but the
// exit status stays zero — the soft mode CI uses while a number
// stabilizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// result mirrors the benchjson output shape.
type result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Iterations  int64              `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics"`
}

// row is one rendered comparison line.
type row struct {
	Bench      string
	Metric     string
	Old, New   float64
	Delta      float64 // relative change, sign normalized so >0 = worse
	Gates      bool    // whether this metric can fail the comparison
	Tolerance  float64 // what Delta is held to when the row gates
	Regression bool
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "relative regression tolerance (0.10 = 10%)")
	counts := flag.Float64("counts", 0, "relative tolerance for the count rows (allocs/op, B/op, */event, heap-highwater); 0 gates only */event, at the threshold")
	warn := flag.Bool("warn", false, "report regressions but exit zero")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-counts 0.01] [-warn] old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *counts, *warn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// envKey is benchjson's reserved environment-stamp key.
const envKey = "_env"

// env is the part of the stamp the comparison reads. Files written
// before the stamp existed have none; their GOMAXPROCS reads 0.
type env struct {
	GOMAXPROCS int `json:"gomaxprocs"`
}

func load(path string) (map[string]result, env, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, env{}, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, env{}, fmt.Errorf("%s: %w", path, err)
	}
	var stamp env
	if msg, ok := raw[envKey]; ok {
		if err := json.Unmarshal(msg, &stamp); err != nil {
			return nil, env{}, fmt.Errorf("%s: %s: %w", path, envKey, err)
		}
		delete(raw, envKey)
	}
	m := make(map[string]result, len(raw))
	for name, msg := range raw {
		var r result
		if err := json.Unmarshal(msg, &r); err != nil {
			return nil, env{}, fmt.Errorf("%s: %s: %w", path, name, err)
		}
		m[name] = r
	}
	if len(m) == 0 {
		return nil, env{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return m, stamp, nil
}

// run executes the comparison, returning the process exit code: 0 when
// clean (or -warn), 1 when a gating metric regressed past threshold.
func run(w io.Writer, oldPath, newPath string, threshold, counts float64, warn bool) (int, error) {
	oldRes, oldEnv, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newRes, newEnv, err := load(newPath)
	if err != nil {
		return 0, err
	}
	if o, n := oldEnv.GOMAXPROCS, newEnv.GOMAXPROCS; o != 0 && n != 0 && o != n {
		fmt.Fprintf(w, "WARNING: GOMAXPROCS differs (old %d, new %d): rows that scale with cores (workers=N) are not like for like\n\n", o, n)
	}

	rows, onlyOld, onlyNew := diff(oldRes, newRes, threshold, counts)
	render(w, rows, onlyOld, onlyNew)

	regressed := 0
	for _, r := range rows {
		if r.Regression {
			regressed++
		}
	}
	beyond := fmt.Sprintf("%.0f%%", threshold*100)
	if counts > 0 {
		beyond += fmt.Sprintf(" (count rows: %.0f%%)", counts*100)
	}
	switch {
	case regressed == 0:
		fmt.Fprintf(w, "\nOK: no gating metric regressed beyond %s\n", beyond)
		return 0, nil
	case warn:
		fmt.Fprintf(w, "\nWARN: %d gating metric(s) regressed beyond %s (exit 0, -warn)\n", regressed, beyond)
		return 0, nil
	default:
		fmt.Fprintf(w, "\nFAIL: %d gating metric(s) regressed beyond %s\n", regressed, beyond)
		return 1, nil
	}
}

// diff builds the comparison rows for benchmarks common to both sides,
// plus the names unique to each.
func diff(oldRes, newRes map[string]result, threshold, counts float64) (rows []row, onlyOld, onlyNew []string) {
	names := make([]string, 0, len(oldRes))
	for n := range oldRes {
		if _, ok := newRes[n]; ok {
			names = append(names, n)
		} else {
			onlyOld = append(onlyOld, n)
		}
	}
	for n := range newRes {
		if _, ok := oldRes[n]; !ok {
			onlyNew = append(onlyNew, n)
		}
	}
	sort.Strings(names)
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)

	for _, n := range names {
		o, nw := oldRes[n], newRes[n]
		// ns/op: lower is better; delta>0 means slower.
		rows = append(rows,
			mkRow(n, "ns/op", o.NsPerOp, nw.NsPerOp, false, true, threshold),
			mkRow(n, "allocs/op", o.AllocsPerOp, nw.AllocsPerOp, false, counts > 0, counts),
			mkRow(n, "B/op", o.BytesPerOp, nw.BytesPerOp, false, counts > 0, counts))
		units := make([]string, 0, len(o.Metrics))
		for u := range o.Metrics {
			if _, ok := nw.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			switch {
			case strings.HasSuffix(u, "/sec"):
				rows = append(rows, mkRow(n, u, o.Metrics[u], nw.Metrics[u], true, true, threshold))
			case counts > 0 && (strings.HasSuffix(u, "/event") || u == "heap-highwater"):
				rows = append(rows, mkRow(n, u, o.Metrics[u], nw.Metrics[u], false, true, counts))
			default:
				rows = append(rows, mkRow(n, u, o.Metrics[u], nw.Metrics[u], false, strings.HasSuffix(u, "/event"), threshold))
			}
		}
	}
	return rows, onlyOld, onlyNew
}

// mkRow normalizes the delta so positive always means "worse" for
// gating metrics; for non-gating context metrics it is the raw relative
// change.
func mkRow(bench, metric string, o, n float64, higherBetter, gates bool, tolerance float64) row {
	var delta float64
	switch {
	case o == 0 && n == 0:
		delta = 0
	case o == 0:
		delta = 1 // from zero to something: treat as 100%
	case higherBetter:
		delta = (o - n) / o
	default:
		delta = (n - o) / o
	}
	return row{
		Bench: bench, Metric: metric, Old: o, New: n,
		Delta: delta, Gates: gates, Tolerance: tolerance,
		Regression: gates && delta > tolerance,
	}
}

func render(w io.Writer, rows []row, onlyOld, onlyNew []string) {
	fmt.Fprintf(w, "%-44s %-14s %14s %14s %9s  %s\n",
		"benchmark", "metric", "old", "new", "delta", "verdict")
	for _, r := range rows {
		verdict := ""
		switch {
		case r.Regression:
			verdict = "REGRESSION"
		case !r.Gates:
			verdict = "(info)"
		case r.Delta < -r.Tolerance:
			verdict = "improved"
		}
		// The sign convention: positive delta = worse for gated metrics.
		fmt.Fprintf(w, "%-44s %-14s %14.4g %14.4g %8.1f%%  %s\n",
			r.Bench, r.Metric, r.Old, r.New, r.Delta*100, verdict)
	}
	for _, n := range onlyOld {
		fmt.Fprintf(w, "%-44s only in old file (retired?)\n", n)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(w, "%-44s only in new file (added)\n", n)
	}
}
