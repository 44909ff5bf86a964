package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJSON drops a benchjson-format file into the test's temp dir.
func writeJSON(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{
  "BenchmarkEventsPerSec-8": {
    "ns_per_op": 400000000,
    "iterations": 3,
    "metrics": {"events/sec": 2500000, "allocs/event": 2.8, "heap-highwater": 30}
  },
  "BenchmarkPacketsPerSec-8": {
    "ns_per_op": 500000000,
    "iterations": 3,
    "metrics": {"packets/sec": 1200000}
  }
}`

func runDiff(t *testing.T, oldJSON, newJSON string, threshold float64, warn bool) (int, string) {
	t.Helper()
	var out strings.Builder
	code, err := run(&out,
		writeJSON(t, "old.json", oldJSON),
		writeJSON(t, "new.json", newJSON),
		threshold, 0, warn)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return code, out.String()
}

func TestIdenticalFilesPass(t *testing.T) {
	code, out := runDiff(t, baseline, baseline, 0.10, false)
	if code != 0 {
		t.Fatalf("identical files exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "OK: no gating metric regressed") {
		t.Errorf("missing OK verdict:\n%s", out)
	}
}

// The acceptance criterion: an injected >=20% regression must exit
// non-zero at the default 10% threshold. Here events/sec drops 24%
// and ns/op rises 25%.
func TestInjectedRegressionFails(t *testing.T) {
	regressed := `{
  "BenchmarkEventsPerSec-8": {
    "ns_per_op": 500000000,
    "iterations": 3,
    "metrics": {"events/sec": 1900000, "allocs/event": 2.8}
  },
  "BenchmarkPacketsPerSec-8": {
    "ns_per_op": 500000000,
    "iterations": 3,
    "metrics": {"packets/sec": 1200000}
  }
}`
	code, out := runDiff(t, baseline, regressed, 0.10, false)
	if code != 1 {
		t.Fatalf("regression exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "FAIL: 2 gating metric(s)") {
		t.Errorf("verdict lines wrong:\n%s", out)
	}
}

func TestWarnModeExitsZero(t *testing.T) {
	regressed := strings.Replace(baseline, `"events/sec": 2500000`, `"events/sec": 1000000`, 1)
	code, out := runDiff(t, baseline, regressed, 0.10, true)
	if code != 0 {
		t.Fatalf("-warn exited %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "WARN: 1 gating metric(s)") {
		t.Errorf("missing WARN verdict:\n%s", out)
	}
}

func TestImprovementAndContextMetricsDoNotGate(t *testing.T) {
	// ns/op halves, throughput doubles, and the context-only
	// heap-highwater metric "worsens" 10x — still a clean exit.
	improved := `{
  "BenchmarkEventsPerSec-8": {
    "ns_per_op": 200000000,
    "iterations": 6,
    "metrics": {"events/sec": 5000000, "allocs/event": 2.8, "heap-highwater": 300}
  },
  "BenchmarkPacketsPerSec-8": {
    "ns_per_op": 500000000,
    "iterations": 3,
    "metrics": {"packets/sec": 1200000}
  }
}`
	code, out := runDiff(t, baseline, improved, 0.10, false)
	if code != 0 {
		t.Fatalf("improvement exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "improved") || !strings.Contains(out, "(info)") {
		t.Errorf("missing improved/(info) verdicts:\n%s", out)
	}
}

func TestAllocsPerEventRegressionFails(t *testing.T) {
	// allocs/event is lower-is-better and gates: a 10x jump fails even
	// with every other number flat.
	worse := `{
  "BenchmarkEventsPerSec-8": {
    "ns_per_op": 400000000,
    "iterations": 3,
    "metrics": {"events/sec": 2500000, "allocs/event": 28}
  },
  "BenchmarkPacketsPerSec-8": {
    "ns_per_op": 500000000,
    "iterations": 3,
    "metrics": {"packets/sec": 1200000}
  }
}`
	code, out := runDiff(t, baseline, worse, 0.10, false)
	if code != 1 {
		t.Fatalf("allocs/event regression exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("missing REGRESSION verdict:\n%s", out)
	}
}

// With -counts the rows that count rather than time gate at their own,
// tight tolerance while the timing rows stay on the threshold: 2% more
// allocations or one more heap entry fails at 1%, a 5% slower ns/op
// does not at 8%; without -counts the same file passes.
func TestCountRowsGateAtTheirOwnTolerance(t *testing.T) {
	doc := func(ns, allocs, bytes, highWater float64) string {
		return fmt.Sprintf(`{"BenchmarkEventsPerSec": {"ns_per_op": %v, "allocs_per_op": %v, "bytes_per_op": %v,
  "iterations": 3, "metrics": {"events/sec": 2500000, "allocs/event": 0.058, "heap-highwater": %v}}}`, ns, allocs, bytes, highWater)
	}
	base := doc(400000, 200, 45000, 16)
	diffAt := func(newJSON string, counts float64) (int, string) {
		var out strings.Builder
		code, err := run(&out, writeJSON(t, "old.json", base), writeJSON(t, "new.json", newJSON), 0.08, counts, false)
		if err != nil {
			t.Fatal(err)
		}
		return code, out.String()
	}
	for name, c := range map[string]struct {
		doc          string
		counts       float64
		code, failed int
	}{
		"slower only":         {doc(420000, 200, 45000, 16), 0.01, 0, 0},
		"more allocations":    {doc(400000, 204, 45000, 16), 0.01, 1, 1},
		"more bytes and heap": {doc(400000, 200, 46000, 17), 0.01, 1, 2},
		"within 1%":           {doc(400000, 201, 45100, 16), 0.01, 0, 0},
		"counts off":          {doc(400000, 204, 46000, 17), 0, 0, 0},
	} {
		code, out := diffAt(c.doc, c.counts)
		if code != c.code || strings.Count(out, "REGRESSION") != c.failed {
			t.Errorf("%s: exit %d with %d regressions, want %d and %d:\n%s", name, code, strings.Count(out, "REGRESSION"), c.code, c.failed, out)
		}
	}
}

func TestDisjointBenchmarksListedNotGated(t *testing.T) {
	newOnly := `{
  "BenchmarkEventsPerSec-8": {
    "ns_per_op": 400000000,
    "iterations": 3,
    "metrics": {"events/sec": 2500000}
  },
  "BenchmarkBrandNew-8": {"ns_per_op": 1, "iterations": 1}
}`
	code, out := runDiff(t, baseline, newOnly, 0.10, false)
	if code != 0 {
		t.Fatalf("disjoint sets exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkPacketsPerSec-8") || !strings.Contains(out, "only in old file") {
		t.Errorf("missing only-in-old listing:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkBrandNew-8") || !strings.Contains(out, "only in new file") {
		t.Errorf("missing only-in-new listing:\n%s", out)
	}
}

func TestThresholdBoundary(t *testing.T) {
	// Exactly at the threshold is tolerated; just past it is not.
	at := strings.Replace(baseline, `"ns_per_op": 400000000,
    "iterations": 3,
    "metrics": {"events/sec": 2500000`, `"ns_per_op": 440000000,
    "iterations": 3,
    "metrics": {"events/sec": 2500000`, 1)
	if code, out := runDiff(t, baseline, at, 0.10, false); code != 0 {
		t.Errorf("10%% slowdown at 10%% threshold exited %d:\n%s", code, out)
	}
	past := strings.Replace(at, "440000000", "441000000", 1)
	if code, out := runDiff(t, baseline, past, 0.10, false); code != 1 {
		t.Errorf("10.25%% slowdown at 10%% threshold exited %d:\n%s", code, out)
	}
}

func TestBadInputErrors(t *testing.T) {
	for name, content := range map[string]string{
		"not-json": "hello",
		"empty":    "{}",
	} {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			_, err := run(&out, writeJSON(t, "old.json", content), writeJSON(t, "new.json", baseline), 0.10, 0, false)
			if err == nil {
				t.Errorf("accepted %s old file", name)
			}
		})
	}
	var out strings.Builder
	if _, err := run(&out, filepath.Join(t.TempDir(), "missing.json"), writeJSON(t, "new.json", baseline), 0.10, 0, false); err == nil {
		t.Error("accepted missing old file")
	}
}

func TestMkRowZeroHandling(t *testing.T) {
	if r := mkRow("b", "ns/op", 0, 0, false, true, 0.1); r.Delta != 0 || r.Regression {
		t.Errorf("0->0 row = %+v", r)
	}
	if r := mkRow("b", "ns/op", 0, 50, false, true, 0.1); !r.Regression {
		t.Errorf("0->50 should regress: %+v", r)
	}
}

// withEnv adds benchjson's environment stamp to a results document.
func withEnv(doc string, procs string) string {
	return strings.Replace(doc, "{", `{"_env": {"goos": "linux", "cpu": "Fake CPU", "pkg": ["rrtcp"], "gomaxprocs": `+procs+`},`, 1)
}

// The environment stamp is never compared as a benchmark; it only
// produces the GOMAXPROCS warning, and only when both files carry one
// and they differ. A stamped file still compares against an unstamped
// one (a baseline committed before the stamp existed).
func TestEnvStampSkippedAndGOMAXPROCSWarned(t *testing.T) {
	for name, tc := range map[string]struct {
		old, new string
		warned   bool
	}{
		"same":        {withEnv(baseline, "4"), withEnv(baseline, "4"), false},
		"differ":      {withEnv(baseline, "1"), withEnv(baseline, "4"), true},
		"old-unknown": {baseline, withEnv(baseline, "4"), false},
		"mixed-cpu":   {withEnv(baseline, "1"), withEnv(baseline, "0"), false},
	} {
		code, out := runDiff(t, tc.old, tc.new, 0.10, false)
		if code != 0 || !strings.Contains(out, "OK: no gating metric regressed") {
			t.Errorf("%s: exited %d:\n%s", name, code, out)
		}
		if strings.Contains(out, "_env") {
			t.Errorf("%s: the stamp was compared or listed as a benchmark:\n%s", name, out)
		}
		if got := strings.Contains(out, "WARNING: GOMAXPROCS differs (old 1, new 4)"); got != tc.warned {
			t.Errorf("%s: GOMAXPROCS warning printed = %v, want %v:\n%s", name, got, tc.warned, out)
		}
	}
	var out strings.Builder
	if _, err := run(&out, writeJSON(t, "old.json", `{"_env": {"gomaxprocs": 4}}`), writeJSON(t, "new.json", baseline), 0.10, 0, false); err == nil {
		t.Error("a file holding only the stamp was accepted as having benchmarks")
	}
}
