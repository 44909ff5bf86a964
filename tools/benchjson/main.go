// Command benchjson converts `go test -bench` output on stdin into a
// JSON object on stdout mapping benchmark name to its measurements:
//
//	go test -bench . -benchmem ./internal/telemetry/ | go run ./tools/benchjson > bench.json
//
//	{
//	  "BenchmarkNDJSONEmit": {"ns_per_op": 71.2, "allocs_per_op": 0, "bytes_per_op": 0},
//	  ...
//	  "_env": {"goos": "linux", "goarch": "amd64", "pkg": ["rrtcp/internal/telemetry"],
//	           "cpu": "...", "gomaxprocs": 8}
//	}
//
// The reserved "_env" key stamps where the numbers came from: the
// goos/goarch/pkg/cpu header lines `go test` prints, and GOMAXPROCS,
// which `go test` only reports as the -N suffix of every benchmark
// name (absent at GOMAXPROCS=1). When every result line carries the
// same suffix it is stripped from the names and recorded once, so files
// from boxes with different core counts share their keys and a scaling
// curve such as BenchmarkEngine/workers=1..8 can be read against the
// cores it ran on. A run mixing suffixes (-cpu 1,2,4) keeps the names
// as printed and records no gomaxprocs.
//
// Other lines (PASS, ok, warm-up chatter) are ignored. The command exits
// non-zero if no benchmark lines were found, so a CI job cannot
// silently upload an empty artifact.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// result holds one benchmark line's measurements. Memory fields are
// zero when the input was produced without -benchmem. Custom units
// reported via b.ReportMetric (events/sec, allocs/event, rr-Kbps, ...)
// land in Metrics keyed by their unit string.
type result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Iterations  int64              `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// envKey is the reserved top-level key holding the environment stamp;
// no benchmark name can collide with it (they all start "Benchmark").
const envKey = "_env"

// env is the environment stamp. Pkg lists every package header seen, in
// order, since one stream may concatenate several packages' benchmarks.
type env struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        []string `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
}

// header folds one `key: value` header line into the stamp, reporting
// whether the line was one.
func (e *env) header(line string) bool {
	key, val, ok := strings.Cut(line, ": ")
	if !ok {
		return false
	}
	val = strings.TrimSpace(val)
	switch key {
	case "goos":
		e.Goos = val
	case "goarch":
		e.Goarch = val
	case "cpu":
		e.CPU = val
	case "pkg":
		if !slices.Contains(e.Pkg, val) {
			e.Pkg = append(e.Pkg, val)
		}
	default:
		return false
	}
	return true
}

// splitProcs splits the -N GOMAXPROCS suffix off a benchmark name as
// printed; a name without one ran at GOMAXPROCS=1.
func splitProcs(name string) (base string, procs int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 1 {
			return name[:i], n
		}
	}
	return name, 1
}

// commonProcs returns the GOMAXPROCS every result name agrees on, or 0
// when they differ.
func commonProcs(results map[string]result) int {
	common := 0
	for name := range results {
		_, procs := splitProcs(name)
		if common != 0 && procs != common {
			return 0
		}
		common = procs
	}
	return common
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	results := map[string]result{}
	var stamp env
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the stream so the raw log stays visible in CI output.
		fmt.Fprintln(os.Stderr, line)
		if stamp.header(line) {
			continue
		}
		name, res, ok := parseLine(line)
		if ok {
			results[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	// Strip the GOMAXPROCS suffix only when the whole run agrees on it:
	// then it is certainly the suffix and not part of a name.
	stamp.GOMAXPROCS = commonProcs(results)
	doc := make(map[string]any, len(results)+1)
	for name, res := range results {
		if stamp.GOMAXPROCS > 1 {
			name, _ = splitProcs(name)
		}
		doc[name] = res
	}
	doc[envKey] = stamp
	// encoding/json emits map keys in sorted order, so the artifact is
	// deterministic for identical input.
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseLine decodes one `go test -bench` result line:
//
//	BenchmarkName-8   123456   71.2 ns/op   16 B/op   1 allocs/op
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	res := result{Iterations: iters, NsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	if res.NsPerOp < 0 {
		return "", result{}, false
	}
	return fields[0], res, true
}
