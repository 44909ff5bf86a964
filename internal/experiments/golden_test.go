package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current outputs")

// rrsimDefaults are the option values rrsim's flags default to.
var rrsimDefaults = Options{Runs: 100, Drops: 3}

// goldenCases pins what `rrsim <name>` and `rrsim <name> -json` print:
// every `rrsim all` experiment at default options, fig5 at both burst
// sizes the paper plots, and small chaos and stress sweeps.
var goldenCases = []struct {
	file, name string
	opts       Options
}{
	{"fig5_drops3", "fig5", rrsimDefaults},
	{"fig5_drops6", "fig5", Options{Runs: 100, Drops: 6}},
	{"fig6", "fig6", rrsimDefaults},
	{"fig7", "fig7", rrsimDefaults},
	{"table5", "table5", rrsimDefaults},
	{"ackloss", "ackloss", rrsimDefaults},
	{"fairshare", "fairshare", rrsimDefaults},
	{"twoway", "twoway", rrsimDefaults},
	{"smoothstart", "smoothstart", rrsimDefaults},
	{"bursty", "bursty", rrsimDefaults},
	{"ablation", "ablation", rrsimDefaults},
	{"stress", "stress", rrsimDefaults},
	{"chaos_runs5_seed7", "chaos", Options{Runs: 5, Drops: 3, Seed: 7}},
	{"stress_cells2_flows8_seed7", "stress", Options{Runs: 100, Drops: 3, Cells: 2, Flows: 8, Seed: 7, Horizon: 10 * time.Second}},
}

// TestGoldenOutputs compares each experiment's text rendering and
// indented JSON, byte for byte as rrsim prints them, against the files
// committed under testdata/golden, at one worker and at four. Re-pin
// after an intended output change with
// `go test ./internal/experiments -run Golden -update`.
func TestGoldenOutputs(t *testing.T) {
	for _, gc := range goldenCases {
		for _, workers := range []int{1, 4} {
			e, err := Build(gc.name, gc.opts)
			if err != nil {
				t.Fatalf("%s: build: %v", gc.file, err)
			}
			res, err := Run(e, RunOptions{Parallel: workers})
			if err != nil {
				t.Fatalf("%s (parallel=%d): %v", gc.file, workers, err)
			}
			var js bytes.Buffer
			enc := json.NewEncoder(&js)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatalf("%s: encode: %v", gc.file, err)
			}
			compareGolden(t, gc.file+".txt", workers, []byte(res.Render()+"\n"))
			compareGolden(t, gc.file+".json", workers, js.Bytes())
		}
	}
}

func compareGolden(t *testing.T, file string, workers int, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden && workers == 1 {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden at parallel=%d:\n--- got ---\n%s\n--- want ---\n%s", file, workers, got, want)
	}
}
