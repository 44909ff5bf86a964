// Command bench is the repository benchmark: five closed-loop workloads
// measured end to end (untraced) and layer by layer (traced, from
// outside the layers). BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench --workload manyflow --trace 1    one workload, per-layer metrics
//	go run ./bench -out a.json ; go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeed is the seed whose model digests are pinned in
// testdata/digests.json.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedRounds makes the process exit non-zero when fail_ratio > 0.
var errFailedRounds = errors.New("rounds failed their correctness check (fail_ratio > 0)")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "seed for every generated input")
	seconds := fs.Float64("seconds", 0, "timed region per workload in seconds (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics and the cost budget instead of end-to-end metrics")
	traceOut := fs.String("trace-out", "", "traced run: write the recorded spans as JSON to this file")
	out := fs.String("out", "", "also write the result document (environment stamp, medians, quartiles) to this file")
	smoke := fs.Bool("smoke", false, "tiny scale, one round per workload: checks the plumbing, measures nothing")
	updateDigests := fs.Bool("update-digests", false, "re-pin bench/testdata/digests.json from this run (default seed, run from the repository root)")
	compare := fs.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traced := *trace != 0
	man, err := loadManifest()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(stdout, man, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []*workloadDef{w}
	}
	pinned, err := loadDigests()
	if err != nil {
		return err
	}
	if *updateDigests && (*seed != defaultSeed || *smoke) {
		return errors.New("-update-digests pins the default seed at full scale only")
	}

	doc := &document{Env: environment(), Seed: *seed, Trace: traced, Smoke: *smoke}
	fmt.Fprintf(stdout, "env: %s\n", doc.Env)
	var spans []spanRecord
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: *seconds, scale: sc}
		if *seed == defaultSeed && !*smoke && !*updateDigests {
			cfg.pinned = pinned[w.name]
		}
		var wr *workloadResult
		if traced {
			var s []spanRecord
			wr, s = runTraced(w, cfg, *traceOut != "")
			spans = append(spans, s...)
		} else {
			wr = runUntraced(w, cfg)
		}
		if err := man.stamp(wr, traced); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		wr.print(stdout, man, traced)
		doc.Workloads = append(doc.Workloads, wr)
	}
	if *updateDigests {
		for _, wr := range doc.Workloads {
			pinned[wr.Name] = wr.Digest
		}
		if err := writeDigests(pinned); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			return err
		}
	}
	failed := 0
	for _, wr := range doc.Workloads {
		failed += wr.Failed
	}
	// The driver's contract: the last line of a single-workload run is
	// one JSON object with exactly these keys.
	if len(doc.Workloads) == 1 {
		wr := doc.Workloads[0]
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]valueOfUnit `json:"metrics"`
		}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]valueOfUnit{}}
		for k, m := range wr.Metrics {
			line.Metrics[k] = valueOfUnit{m.Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if failed > 0 {
		return errFailedRounds
	}
	return nil
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
