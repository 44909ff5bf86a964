package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json: the single declaration of workload and
// metric names, units, directions and regression bounds. The program
// reads it rather than repeating it, and refuses to report a metric it
// does not declare (or to omit one it does).
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the working directory (the
// repository root under `go run ./bench`) or its parent (the package
// directory under `go test`).
func loadManifest() (*manifest, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", lastErr)
}

func (m *manifest) decls(traced bool) []metricDecl {
	if traced {
		return m.PerLayer
	}
	return m.EndToEnd
}

// stamp attaches the declared unit to every metric of wr and checks
// that the reported names are exactly the declared ones.
func (m *manifest) stamp(wr *workloadResult, traced bool) error {
	decls := m.decls(traced)
	for _, d := range decls {
		v, ok := wr.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		v.Unit = d.Unit
		wr.Metrics[d.Name] = v
	}
	for k := range wr.Metrics {
		if !hasDecl(decls, k) {
			return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", k)
		}
	}
	return nil
}

func hasDecl(decls []metricDecl, name string) bool {
	for _, d := range decls {
		if d.Name == name {
			return true
		}
	}
	return false
}

// document is what -out writes and -compare reads.
type document struct {
	Env       env               `json:"env"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
	// Claim is always null: the benchmark itself never claims a gain.
	Claim *string `json:"claim"`
}

// workloadResult is one workload's block of a document.
type workloadResult struct {
	Name      string            `json:"name"`
	Rounds    int               `json:"rounds"`
	Workers   int               `json:"sweep_workers"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`
	Metrics   map[string]metric `json:"metrics"`
	// Budget is the traced run's ns-per-event cost budget (steady10 and
	// manyflow only), in row order.
	Budget []budgetRow `json:"budget,omitempty"`
}

// metric is a reported value with the spread of the samples behind it.
// Single-sample metrics carry P25 = P75 = Value and N = 1.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
	// Samples are the measurements behind Value, in the order taken.
	Samples []float64 `json:"samples,omitempty"`
}

type budgetRow struct {
	Row        string  `json:"row"`
	NsPerEvent float64 `json:"ns_per_event"`
	Share      float64 `json:"share"`
}

func single(v float64) metric { return metric{Value: v, P25: v, P75: v, N: 1} }

// summarize reports the median of xs with its quartiles (linear
// interpolation between order statistics).
func summarize(xs []float64) metric {
	if len(xs) == 0 {
		return metric{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{Value: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75), N: len(s), Samples: xs}
}

func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (wr *workloadResult) print(w io.Writer, man *manifest, traced bool) {
	fmt.Fprintf(w, "\nworkload %s: %d rounds, %d sweep worker(s), digest %.16s\n", wr.Name, wr.Rounds, wr.Workers, wr.Digest)
	for _, d := range man.decls(traced) {
		m := wr.Metrics[d.Name]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-40s %14.6g %-6s (p25 %.6g, p75 %.6g, n %d)\n", d.Name, m.Value, m.Unit, m.P25, m.P75, m.N)
		} else {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(wr.Budget) > 0 {
		fmt.Fprintf(w, "  cost budget (ns per simulated event):\n")
		for _, r := range wr.Budget {
			fmt.Fprintf(w, "    %-14s %9.2f  %5.1f%%\n", r.Row, r.NsPerEvent, 100*r.Share)
		}
	}
	fmt.Fprintf(w, "  %-40s %14.6g ratio  (%d of %d rounds failed)\n", "fail_ratio", float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// env is the environment stamp carried by every output document, so a
// number can be read against the machine that produced it.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitCommit  string `json:"git_commit,omitempty"`
}

func (e env) String() string {
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d NumCPU=%d cpu=%q commit=%q",
		e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GitCommit)
}

func environment() env {
	return env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
	}
}

// cpuModel is best effort: the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit resolves HEAD by reading .git directly (best effort; the
// benchmark must also run in a checkout that is not a repository).
func gitCommit() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(dir + "/" + ref); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(dir + "/packed-refs"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	return ""
}

// digestsPath is where -update-digests writes, relative to the
// repository root; the same file is embedded for checking.
const digestsPath = "bench/testdata/digests.json"

//go:embed testdata/digests.json
var embeddedDigests []byte

// digestFile pins one model digest per workload for the default seed.
type digestFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadDigests() (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(embeddedDigests, &f); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	if f.Digests == nil {
		f.Digests = map[string]string{}
	}
	return f.Digests, nil
}

func writeDigests(d map[string]string) error {
	return writeJSON(digestsPath, digestFile{Seed: defaultSeed, Digests: d})
}
