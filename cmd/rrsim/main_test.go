package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrtcp"
	"rrtcp/internal/telemetry"
)

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatalf("read: %v", err)
	}
	return buf.String(), runErr
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// rrsim writes the event log and nothing rendered from it: the Chrome
// trace and the metrics snapshot are rrtrace export and rrtrace metrics.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"fig5", "-nonsense"},
		{"fig5", "-trace-out", filepath.Join(t.TempDir(), "t.json")},
		{"run", "-metrics", "../../examples/scenarios/burstloss.json"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: got %v, want an undefined flag", args, err)
		}
	}
}

// A full stdout fails the run instead of losing the result silently.
// /dev/full accepts the open and fails every write.
func TestRunFullStdoutFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full not available")
	}
	defer full.Close()
	old := os.Stdout
	os.Stdout = full
	defer func() { os.Stdout = old }()
	for _, args := range [][]string{
		{"fig5", "-variants", "rr"},
		{"fig5", "-variants", "rr", "-json"},
		{"run", "../../examples/scenarios/burstloss.json"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Errorf("%v to a full stdout: got %v, want the write error", args, err)
		}
	}
}

func TestRunFig5Text(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fig5", "-drops", "3"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Figure 5", "tahoe", "rr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig5JSON(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fig5", "-json"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var decoded struct {
		Rows []struct {
			Variant    string  `json:"variant"`
			GoodputBps float64 `json:"goodputBps"`
			Finished   bool    `json:"finished"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(decoded.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(decoded.Rows))
	}
	for _, row := range decoded.Rows {
		if !row.Finished || row.GoodputBps <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestRunFairShareText(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fairshare"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "drr") || !strings.Contains(out, "fifo") {
		t.Fatalf("output missing disciplines:\n%s", out)
	}
}

func TestRunAblationText(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"ablation"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "rr (published)") {
		t.Fatalf("output missing published row:\n%s", out)
	}
}

func TestRunFig7Quick(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fig7", "-quick"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "square-root") {
		t.Fatalf("output missing title:\n%s", out)
	}
}

func TestRunScenarioSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.json"
	spec := `{"duration":"10s","flows":[{"kind":"rr","packets":50,"window":18}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := capture(t, func() error { return run([]string{"run", path}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "rr") || !strings.Contains(out, "fwd") {
		t.Fatalf("scenario output wrong:\n%s", out)
	}
}

func TestRunScenarioMissingArg(t *testing.T) {
	if err := run([]string{"run"}); err == nil {
		t.Fatal("missing scenario path accepted")
	}
}

func TestRunScenarioJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.json"
	spec := `{"duration":"5s","flows":[{"kind":"newreno","packets":20,"window":18}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := capture(t, func() error { return run([]string{"run", "-json", path}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep struct {
		Flows []struct {
			Kind     string `json:"kind"`
			Finished bool   `json:"finished"`
		} `json:"flows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Flows) != 1 || !rep.Flows[0].Finished {
		t.Fatalf("report wrong: %+v", rep)
	}
}

func TestRunExampleScenarios(t *testing.T) {
	for _, f := range []string{"burstloss.json", "red-contention.json", "twoway-fairqueue.json"} {
		f := f
		t.Run(f, func(t *testing.T) {
			if _, err := capture(t, func() error {
				return run([]string{"run", "../../examples/scenarios/" + f})
			}); err != nil {
				t.Fatalf("example scenario %s failed: %v", f, err)
			}
		})
	}
}

func TestRunScenarioTraceExport(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/s.json"
	csvOut := dir + "/trace.csv"
	if err := os.WriteFile(spec,
		[]byte(`{"duration":"5s","flows":[{"kind":"rr","packets":20,"window":18}]}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"run", "-trace", csvOut, spec})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.HasPrefix(string(data), "time_s,event,seq,value") {
		t.Fatalf("trace header wrong: %.60s", data)
	}
	if !strings.Contains(string(data), "send") {
		t.Fatal("trace contains no send events")
	}
}

func TestRunFig5EventsExport(t *testing.T) {
	dir := t.TempDir()
	events := dir + "/events.ndjson"
	if _, err := capture(t, func() error {
		return run([]string{"fig5", "-variants", "rr", "-events", events})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	out := string(data)
	for _, want := range []string{
		`"kind":"recovery-enter"`,
		`"kind":"retreat-probe"`,
		`"kind":"recovery-exit"`,
		`"comp":"loss"`,
		`"src":"fwd"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("event log missing %s", want)
		}
	}
	// Each line must be standalone JSON.
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid: %v", i+1, err)
		}
	}
}

func TestRunScenarioEventsExport(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/s.json"
	events := dir + "/events.ndjson"
	if err := os.WriteFile(spec,
		[]byte(`{"duration":"10s","loss":{"drops":[{"flow":0,"packets":[60,61,63]}]},`+
			`"flows":[{"kind":"rr","packets":150,"window":18}]}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"run", "-events", events, spec})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	if !strings.Contains(string(data), `"kind":"recovery-enter"`) {
		t.Fatal("scenario event log missing recovery events")
	}
	// A scenario publishing telemetry samples its gauges, so rrtrace
	// export's Chrome trace of the log has counter tracks.
	if !strings.Contains(string(data), `"kind":"sample","src":"cwnd"`) {
		t.Fatal("scenario event log has no gauge samples")
	}
}

// chromeTraceOf renders an -events log as rrtrace export does: the log
// replayed into a span and a series sink, written as a Chrome trace.
func chromeTraceOf(t *testing.T, events string) []byte {
	t.Helper()
	f, err := os.Open(events)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	defer f.Close()
	evs, _, err := telemetry.DecodeNDJSON(f)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	spans, series := telemetry.NewSpanSink(), telemetry.NewSeriesSink()
	telemetry.Replay(evs, spans, series)
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans.Spans(), series.Series()); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if err := rrtcp.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	return buf.Bytes()
}

// rrsim writes the event log; its Chrome trace is rrtrace export's.
func TestRunFig5TraceOut(t *testing.T) {
	events := t.TempDir() + "/events.ndjson"
	if _, err := capture(t, func() error {
		return run([]string{"fig5", "-variants", "rr", "-events", events})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := string(chromeTraceOf(t, events))
	// Spans land as B/E slices; sampled gauges as counter tracks.
	for _, want := range []string{`"recovery"`, `"probe"`, `"ph":"C"`, "cwnd"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestRunScenarioTraceOut(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/s.json"
	events := dir + "/events.ndjson"
	if err := os.WriteFile(spec,
		[]byte(`{"duration":"10s","loss":{"drops":[{"flow":0,"packets":[60,61]}]},`+
			`"flows":[{"kind":"rr","packets":150,"window":18}]}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"run", "-events", events, spec})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A scenario publishing telemetry samples its gauges, so counters exist.
	if !strings.Contains(string(chromeTraceOf(t, events)), `"ph":"C"`) {
		t.Fatal("scenario trace has no counter samples")
	}
}

// metricsOf renders an -events log as rrtrace metrics does: the log
// replayed into a MetricsSink, its registry snapshot.
func metricsOf(t *testing.T, log []byte) string {
	t.Helper()
	evs, _, err := telemetry.DecodeNDJSON(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ms := telemetry.NewMetricsSink()
	telemetry.Replay(evs, ms)
	return ms.R.Snapshot()
}

// A scenario's event log is a function of its seed: two runs of every
// example scenario write the same bytes, and so the same metrics.
func TestRunScenarioEventLogIsTheSeeds(t *testing.T) {
	specs, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, spec := range specs {
		t.Run(filepath.Base(spec), func(t *testing.T) {
			var logs [2][]byte
			for i := range logs {
				events := filepath.Join(t.TempDir(), "events.ndjson")
				if _, err := capture(t, func() error {
					return run([]string{"run", "-events", events, spec})
				}); err != nil {
					t.Fatalf("run: %v", err)
				}
				if logs[i], err = os.ReadFile(events); err != nil {
					t.Fatalf("events file: %v", err)
				}
			}
			if !bytes.Equal(logs[0], logs[1]) {
				a, b := strings.Split(string(logs[0]), "\n"), strings.Split(string(logs[1]), "\n")
				for i := range min(len(a), len(b)) {
					if a[i] != b[i] {
						t.Fatalf("two runs' event logs differ at line %d:\n%s\n%s", i+1, a[i], b[i])
					}
				}
				t.Fatalf("two runs' event logs differ in length: %d and %d lines", len(a), len(b))
			}
			if a, b := metricsOf(t, logs[0]), metricsOf(t, logs[1]); a != b {
				t.Fatalf("two runs' metrics differ:\n%s\n---\n%s", a, b)
			}
		})
	}
}

func TestRunPprofProfiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error {
		return run([]string{"fig5", "-variants", "rr", "-pprof", dir})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(dir + "/" + name)
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", name)
		}
	}
}

func TestRunSmoothStartSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"smoothstart"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "smooth-start") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunParallelOutputIdentical(t *testing.T) {
	// The CLI contract behind -parallel: any worker count yields the
	// same bytes on stdout as sequential execution.
	seq, err := capture(t, func() error {
		return run([]string{"fig5", "-json", "-parallel", "1"})
	})
	if err != nil {
		t.Fatalf("run -parallel 1: %v", err)
	}
	par, err := capture(t, func() error {
		return run([]string{"fig5", "-json", "-parallel", "4"})
	})
	if err != nil {
		t.Fatalf("run -parallel 4: %v", err)
	}
	if seq != par {
		t.Fatal("fig5 -parallel 4 output differs from -parallel 1")
	}
}

// table5's cells run its fixed Seeds list and nothing reads
// Table5Config.Seed, so -seed is refused rather than printing the
// default table under another seed.
func TestRunTable5IgnoresSeed(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"table5", "-seed", "3", "-json"}) })
	if err == nil || err.Error() != "flag provided but not defined: -seed" {
		t.Fatalf("table5 -seed 3 -json: got error %v, want -seed refused", err)
	}
	if out != "" {
		t.Fatalf("table5 -seed 3 -json printed %q before refusing", out)
	}
}

func TestRunBurstySubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"bursty", "-json"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var res struct {
		Points []struct {
			Variant     string  `json:"variant"`
			BurstLength float64 `json:"burstLength"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

// TestRunCheckpointResume drives the crash-recovery workflow end to
// end through the CLI: checkpoint a run, chop its journals to simulate
// a mid-run kill, resume, and demand stdout byte-identical to an
// uninterrupted run — for a chaos sweep, and for all -quick, which
// journals every experiment it runs (fig5 once per drop count).
func TestRunCheckpointResume(t *testing.T) {
	for _, c := range []struct {
		args     []string
		journals int
	}{
		{[]string{"chaos", "-runs", "1", "-seed", "3", "-bytes", "50000", "-horizon", "30s", "-parallel", "2"}, 1},
		{[]string{"all", "-quick", "-parallel", "2"}, 12},
	} {
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		args := c.args
		baseline, err := capture(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%s baseline: %v", args[0], err)
		}

		full, err := capture(t, func() error { return run(append(args, "-checkpoint", ckpt)) })
		if err != nil {
			t.Fatalf("%s checkpointed run: %v", args[0], err)
		}
		if full != baseline {
			t.Fatalf("%s: checkpointing changed the output", args[0])
		}

		// Simulate a kill partway: keep only the first half of each
		// journal's records, plus a torn final line (the usual crash
		// scar).
		matches, err := filepath.Glob(filepath.Join(ckpt, "sweep-*", "journal.ndjson"))
		if err != nil || len(matches) != c.journals {
			t.Fatalf("%s: journal glob: %v %v, want %d journals", args[0], matches, err, c.journals)
		}
		for _, path := range matches {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(data, []byte{'\n'})
			if len(lines) < 3 {
				t.Fatalf("%s has %d records, want more to truncate meaningfully", path, len(lines))
			}
			keep := len(lines) / 2
			torn := append(bytes.Join(lines[:keep], nil), lines[keep][:len(lines[keep])/2]...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		resumed, err := capture(t, func() error {
			return run(append(args, "-checkpoint", ckpt, "-resume"))
		})
		if err != nil {
			t.Fatalf("%s resumed run: %v", args[0], err)
		}
		if resumed != baseline {
			t.Fatalf("%s: resumed output differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
				args[0], baseline, resumed)
		}
	}
}

// The telemetry and flow-analytics flags are not flags of an experiment
// that would ignore them, nor of all, so the flag package refuses them
// before anything runs, rather than leaving an empty file or a missing
// report.
func TestRunRefusesIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"ablation", "-events", filepath.Join(dir, "ab.ndjson")}, "flag provided but not defined: -events"},
		{[]string{"chaos", "-runs", "1", "-events", filepath.Join(dir, "c.ndjson")}, "flag provided but not defined: -events"},
		{[]string{"table5", "-flow-stats"}, "flag provided but not defined: -flow-stats"},
		{[]string{"all", "-quick", "-events", filepath.Join(dir, "all.ndjson")}, "flag provided but not defined: -events"},
		{[]string{"all", "-quick", "-flow-stats"}, "flag provided but not defined: -flow-stats"},
	} {
		out, err := capture(t, func() error { return run(c.args) })
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: got error %v, want %q", c.args, err, c.want)
		}
		if out != "" {
			t.Errorf("%v: printed %q before refusing", c.args, out)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused runs created %d file(s)", len(entries))
	}
}

func TestRunResumeRequiresCheckpoint(t *testing.T) {
	if err := run([]string{"fig5", "-resume"}); err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("got %v, want an error demanding -checkpoint", err)
	}
}

// TestRunProgressEventsNDJSON pins the -progress-events flag: the
// sweep lifecycle stream lands in its own NDJSON file (where rrtrace
// summary reads stalls from), not in stdout.
func TestRunProgressEventsNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	if _, err := capture(t, func() error {
		return run([]string{"chaos", "-runs", "1", "-bytes", "50000", "-horizon", "30s", "-progress-events", path})
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sweep-start"`, `"sweep-job"`, `"sweep-done"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("progress-events stream missing %s:\n%.400s", want, data)
		}
	}
}
