package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: rrtcp/internal/telemetry
cpu: Fake CPU @ 2.40GHz
BenchmarkNDJSONEmit-8   	16428披	bad line that must not parse
BenchmarkNDJSONEmit-8   	16428000	        71.25 ns/op	       0 B/op	       0 allocs/op
BenchmarkRingEventsOf-8 	  512431	      2210 ns/op	    4096 B/op	       1 allocs/op
BenchmarkFigure5NullSink-8	     100	  11520042 ns/op
PASS
ok  	rrtcp/internal/telemetry	4.812s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleBenchOutput), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, stamp := decodeDoc(t, out.String())
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	want := env{Goos: "linux", Goarch: "amd64", Pkg: []string{"rrtcp/internal/telemetry"}, CPU: "Fake CPU @ 2.40GHz", GOMAXPROCS: 8}
	if !reflect.DeepEqual(stamp, want) {
		t.Errorf("_env = %+v, want %+v", stamp, want)
	}
	// Every line ran at -8, so the suffix moved into the stamp.
	ndjson, ok := got["BenchmarkNDJSONEmit"]
	if !ok {
		t.Fatalf("missing BenchmarkNDJSONEmit in %v", got)
	}
	if ndjson.NsPerOp != 71.25 || ndjson.AllocsPerOp != 0 || ndjson.Iterations != 16428000 {
		t.Errorf("BenchmarkNDJSONEmit = %+v, want ns/op 71.25 allocs 0 iters 16428000", ndjson)
	}
	ring := got["BenchmarkRingEventsOf"]
	if ring.BytesPerOp != 4096 || ring.AllocsPerOp != 1 {
		t.Errorf("BenchmarkRingEventsOf = %+v, want 4096 B/op 1 allocs/op", ring)
	}
	// -benchmem omitted: memory fields default to zero, ns/op still required.
	bare := got["BenchmarkFigure5NullSink"]
	if bare.NsPerOp != 11520042 || bare.BytesPerOp != 0 {
		t.Errorf("BenchmarkFigure5NullSink = %+v, want ns/op 11520042, zero memory fields", bare)
	}
}

// decodeDoc splits benchjson output into the benchmark results and the
// reserved environment stamp.
func decodeDoc(t *testing.T, doc string) (map[string]result, env) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(doc), &raw); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, doc)
	}
	var stamp env
	if err := json.Unmarshal(raw[envKey], &stamp); err != nil {
		t.Fatalf("no usable %s key: %v\n%s", envKey, err, doc)
	}
	delete(raw, envKey)
	results := make(map[string]result, len(raw))
	for name, msg := range raw {
		var r result
		if err := json.Unmarshal(msg, &r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = r
	}
	return results, stamp
}

// The GOMAXPROCS suffix is stripped only when every line agrees on it: a
// run at GOMAXPROCS=1 prints none, a name that merely ends in digits or
// a -cpu list breaks the agreement (names stay as printed, no
// gomaxprocs), and packages concatenated into one stream are all listed.
func TestEnvStampAcrossRunShapes(t *testing.T) {
	for name, tc := range map[string]struct {
		in    string
		names []string
		procs int
		pkgs  int
	}{
		"gomaxprocs=1": {
			in:    "pkg: a\nBenchmarkEngine/workers=8 10 5 ns/op\nBenchmarkNDJSONEmit 10 5 ns/op\n",
			names: []string{"BenchmarkEngine/workers=8", "BenchmarkNDJSONEmit"}, procs: 1, pkgs: 1,
		},
		"digits-in-a-name": {
			in:    "BenchmarkEngine/workers=8 10 5 ns/op\nBenchmarkHeap/depth-32 10 5 ns/op\n",
			names: []string{"BenchmarkEngine/workers=8", "BenchmarkHeap/depth-32"},
		},
		"cpu-list": {
			in:    "BenchmarkX 10 5 ns/op\nBenchmarkX-2 10 4 ns/op\nBenchmarkX-4 10 3 ns/op\n",
			names: []string{"BenchmarkX", "BenchmarkX-2", "BenchmarkX-4"},
		},
		"two-packages": {
			in:    "pkg: a\nBenchmarkA/workers=2-4 10 5 ns/op\npkg: b\npkg: a\nBenchmarkB-4 10 5 ns/op\n",
			names: []string{"BenchmarkA/workers=2", "BenchmarkB"}, procs: 4, pkgs: 2,
		},
	} {
		var out strings.Builder
		if err := run(strings.NewReader(tc.in), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, stamp := decodeDoc(t, out.String())
		for _, n := range tc.names {
			if _, ok := got[n]; !ok {
				t.Errorf("%s: missing %q in %v", name, n, got)
			}
		}
		if len(got) != len(tc.names) || stamp.GOMAXPROCS != tc.procs || len(stamp.Pkg) != tc.pkgs {
			t.Errorf("%s: %d results, _env %+v; want %d results, gomaxprocs %d, %d pkgs",
				name, len(got), stamp, len(tc.names), tc.procs, tc.pkgs)
		}
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	line := "BenchmarkEventsPerSec-8  	       3	 414023279 ns/op	         2.1 allocs/event	   2571245 events/sec	  965432 B/op	   20723 allocs/op"
	name, res, ok := parseLine(line)
	if !ok || name != "BenchmarkEventsPerSec-8" {
		t.Fatalf("parseLine = %q, %v, %v", name, res, ok)
	}
	if res.NsPerOp != 414023279 || res.BytesPerOp != 965432 || res.AllocsPerOp != 20723 {
		t.Errorf("standard fields wrong: %+v", res)
	}
	if res.Metrics["events/sec"] != 2571245 || res.Metrics["allocs/event"] != 2.1 {
		t.Errorf("custom metrics wrong: %+v", res.Metrics)
	}
	if len(res.Metrics) != 2 {
		t.Errorf("Metrics has %d entries, want 2: %v", len(res.Metrics), res.Metrics)
	}
}

func TestParseLineWorkingSetMetrics(t *testing.T) {
	// The headline benchmarks also publish engine working-set figures
	// (heap depth high-water, packet-pool hit rate); they must survive
	// the trip into BENCH_core.json like any other custom unit.
	line := "BenchmarkEventsPerSec-8  	      20	   1068618 ns/op	         0.14 allocs/event	   6837804 events/sec	        30.00 heap-highwater	         0.97 pool-hit-ratio	  278706 B/op	    1072 allocs/op"
	_, res, ok := parseLine(line)
	if !ok {
		t.Fatal("parseLine rejected headline output")
	}
	if res.Metrics["heap-highwater"] != 30 || res.Metrics["pool-hit-ratio"] != 0.97 {
		t.Errorf("working-set metrics wrong: %+v", res.Metrics)
	}
	if len(res.Metrics) != 4 {
		t.Errorf("Metrics has %d entries, want 4: %v", len(res.Metrics), res.Metrics)
	}
}

func TestMetricsOmittedWhenAbsent(t *testing.T) {
	_, res, ok := parseLine("BenchmarkX-8 100 71 ns/op")
	if !ok || res.Metrics != nil {
		t.Errorf("plain line grew a Metrics map: %+v ok=%v", res, ok)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	err := run(strings.NewReader("PASS\nok  	pkg	0.1s\n"), &out)
	if err == nil {
		t.Fatal("run accepted input with no benchmark lines")
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"BenchmarkX-8",
		"BenchmarkX-8 notanumber 71 ns/op",
		"BenchmarkX-8 100 71 s/op", // no ns/op pair at all
		"NotABench-8 100 71 ns/op",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}
