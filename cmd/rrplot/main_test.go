package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrtcp"
)

// golden is the path of an rrsim -json golden: byte for byte what
// `rrsim <fig> -json` prints.
func golden(name string) string {
	return filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", name)
}

// readLines returns the lines of dir/name.
func readLines(t *testing.T, dir, name string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// Every row of fig7.dat is the golden table's, read from stdin.
func TestFig7RowsAreTheGoldens(t *testing.T) {
	in, err := os.Open(golden("fig7.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	old := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = old }()
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "fig7"}); err != nil {
		t.Fatalf("run: %v", err)
	}

	var g struct {
		Config struct {
			LossRates []float64 `json:"lossRates"`
		} `json:"config"`
		Points []struct {
			Variant                           string
			LossRate                          float64
			Window, ModelWindow, PadhyeWindow float64
		} `json:"points"`
	}
	data, err := os.ReadFile(golden("fig7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	want := []string{"# p model_sqrt padhye sack_window rr_window"}
	for _, p := range g.Config.LossRates {
		row := fmt.Sprintf("%.4f", p)
		for _, pt := range g.Points {
			if pt.LossRate == p && pt.Variant == "sack" {
				row = fmt.Sprintf("%s %.2f %.2f %.2f", row, pt.ModelWindow, pt.PadhyeWindow, pt.Window)
			}
		}
		for _, pt := range g.Points {
			if pt.LossRate == p && pt.Variant == "rr" {
				row = fmt.Sprintf("%s %.2f", row, pt.Window)
			}
		}
		want = append(want, row)
	}
	got := readLines(t, dir, "fig7.dat")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fig7.dat:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got[1] != "0.0010 38.73 38.30 46.96 47.43" {
		t.Fatalf("p = 0.001 row %q", got[1])
	}
}

// fig5 writes one goodput column per document, headed by its drop count,
// in input order.
func TestFig5ColumnPerDocument(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "fig5", golden("fig5_drops3.json"), golden("fig5_drops6.json")}); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{
		"# variant goodput3drops_kbps goodput6drops_kbps",
		"tahoe 493.8 479.0",
		"newreno 490.6 431.1",
		"sack 514.2 452.6",
		"rr 510.6 448.9",
	}
	if got := readLines(t, dir, "fig5.dat"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fig5.dat:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	gp := readLines(t, dir, "fig5.gp")
	if last := gp[len(gp)-1]; last != "plot 'fig5.dat' using 2:xtic(1) title '3 drops', '' using 3 title '6 drops'" {
		t.Fatalf("fig5.gp plots %q", last)
	}
}

// Decoding a golden into its facade result and encoding it again the way
// rrsim -json does gives the golden's bytes: the reader drops no field.
func TestGoldensDecodeLosslessly(t *testing.T) {
	for name, doc := range map[string]any{
		"fig5_drops3.json": new(rrtcp.Figure5Result),
		"fig5_drops6.json": new(rrtcp.Figure5Result),
		"fig6.json":        new(rrtcp.Figure6Result),
		"fig7.json":        new(rrtcp.Figure7Result),
	} {
		data, err := os.ReadFile(golden(name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: re-encoded result differs from the golden", name)
		}
	}
}

// A document of another figure, a second document where a figure takes
// one, and a later fig5 document missing a variant are each refused, and
// nothing is written.
func TestOtherDocumentsRefused(t *testing.T) {
	fig7, err := os.ReadFile(golden("fig7.json"))
	if err != nil {
		t.Fatal(err)
	}
	twice := filepath.Join(t.TempDir(), "twice.json")
	if err := os.WriteFile(twice, append(fig7, fig7...), 0o644); err != nil {
		t.Fatal(err)
	}
	var drops6 rrtcp.Figure5Result
	data, err := os.ReadFile(golden("fig5_drops6.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &drops6); err != nil {
		t.Fatal(err)
	}
	drops6.Rows = drops6.Rows[:len(drops6.Rows)-1]
	noRR := filepath.Join(t.TempDir(), "norr.json")
	if data, err = json.Marshal(drops6); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(noRR, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"fig5", golden("fig7.json")},
		{"fig6", golden("fig7.json")},
		{"fig7", golden("fig5_drops3.json")},
		{"fig7", golden("fig7.json"), golden("fig7.json")},
		{"fig7", twice},
		{"fig5", golden("fig5_drops3.json"), noRR},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		if err := run(append([]string{"-out", dir}, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: wrote %s", args, dir)
		}
	}
}

func TestHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h: %v", err)
	}
}

func TestRunUnknownTarget(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "fig9"}); err == nil {
		t.Fatal("unknown target accepted")
	}
}
