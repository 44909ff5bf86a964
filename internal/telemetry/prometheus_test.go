package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition byte-for-byte for a
// registry exercising every metric kind and naming shape. Regenerate
// with `go test ./internal/telemetry -run Golden -update` after an
// intentional format change.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Inc("sender.0.retransmits", 4)
	r.Inc("queue.fwd.drops", 2)
	r.Inc("invariant.violations", 1)
	r.Inc("sweep.started", 1)
	r.SetGauge("sender.0.cwnd", 12.5)
	r.SetGauge("queue.fwd.occupancy", 7)
	r.SetGauge("sim.heap_depth", 33)
	for _, v := range []float64{1, 2, 3, 4, 100} {
		r.ObserveLog("queue.fwd.occupancy_hist", v)
	}
	for _, v := range []float64{0.01, 0.02, 0.04} {
		r.ObserveLog("sweep.job_latency_s", v)
	}
	// A hostile instance name: label value needs escaping, family is
	// sanitized.
	r.Inc(`queue.we"ird\x.drops`, 9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, buf.String())
	}

	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestWritePrometheusWhileWriting(t *testing.T) {
	r := NewRegistry()
	r.Inc("queue.fwd.drops", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			r.Inc("queue.fwd.drops", 1)
			r.SetGauge("sender.0.cwnd", float64(i))
			r.ObserveLog("queue.fwd.occupancy_hist", float64(i%40))
			r.ObserveLog("sweep.job_latency_s", float64(i%7+1))
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, buf.String())
		}
	}
	<-done
}

func TestPromSplit(t *testing.T) {
	cases := []struct {
		name, family, instance string
	}{
		{"violations", "violations", ""},
		{"sweep.started", "sweep_started", ""},
		{"queue.fwd.drops", "queue_drops", "fwd"},
		{"sender.0.sample_cwnd", "sender_sample_cwnd", "0"},
		{"sweep.3.worker_busy_s", "sweep_worker_busy_s", "3"},
		{"a.b.c.d", "a_d", "b.c"},
	}
	for _, c := range cases {
		fam, inst := promSplit(c.name)
		if fam != c.family || inst != c.instance {
			t.Errorf("promSplit(%q) = (%q, %q), want (%q, %q)",
				c.name, fam, inst, c.family, c.instance)
		}
	}
}

func TestValidatePrometheusAccepts(t *testing.T) {
	good := []string{
		"",
		"# TYPE x counter\nx 1\n",
		"# TYPE x_seconds gauge\nx_seconds{instance=\"fwd\"} 1.5e-3\n",
		"# TYPE lat summary\nlat{quantile=\"0.5\"} 2\nlat_sum 10\nlat_count 5\n",
		"# HELP x something\n# TYPE x counter\nx 1\n",
		"# TYPE x gauge\nx NaN\nx{a=\"b\"} +Inf\n",
	}
	for _, g := range good {
		if err := ValidatePrometheus([]byte(g)); err != nil {
			t.Errorf("ValidatePrometheus(%q) = %v, want nil", g, err)
		}
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	bad := map[string]string{
		"no TYPE":          "x 1\n",
		"bad value":        "# TYPE x counter\nx one\n",
		"bad name":         "# TYPE x counter\n1x 1\n",
		"bad label":        "# TYPE x counter\nx{1a=\"b\"} 1\n",
		"unquoted label":   "# TYPE x counter\nx{a=b} 1\n",
		"unknown type":     "# TYPE x histogramme\nx 1\n",
		"truncated TYPE":   "# TYPE x\nx 1\n",
		"suffix untyped":   "# TYPE x counter\nx_sum 1\n",
		"garbage line":     "# TYPE x counter\nx 1\nhello world again\n",
		"missing value":    "# TYPE x counter\nx\n",
		"value not number": "# TYPE x gauge\nx 1.2.3\n",
	}
	for name, b := range bad {
		if err := ValidatePrometheus([]byte(b)); err == nil {
			t.Errorf("%s: ValidatePrometheus(%q) accepted", name, b)
		}
	}
}

func TestPromSanitize(t *testing.T) {
	if got := promSanitize("9lives"); !strings.HasPrefix(got, "_") {
		t.Errorf("leading digit not guarded: %q", got)
	}
	if got := promSanitize(`we"ird\x`); strings.ContainsAny(got, `"\`) {
		t.Errorf("promSanitize left metric-name junk: %q", got)
	}
}
