package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// writeLog synthesizes a small event log with one full RR recovery
// episode and a queue drop.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sink := telemetry.NewNDJSONSink(f)
	for _, ev := range []telemetry.Event{
		{At: 0, Comp: telemetry.CompSender, Kind: telemetry.KSend, Flow: 0},
		{At: 500 * time.Millisecond, Comp: telemetry.CompSender, Kind: telemetry.KCwnd, Flow: 0, A: 8},
		{At: 900 * time.Millisecond, Comp: telemetry.CompQueue, Kind: telemetry.KDrop, Src: "fwd", Flow: 0, A: 8, B: 1},
		{At: time.Second, Comp: telemetry.CompRR, Kind: telemetry.KRecoveryEnter, Flow: 0, A: 13, B: 6.5},
		{At: 1200 * time.Millisecond, Comp: telemetry.CompRR, Kind: telemetry.KRetreatProbe, Flow: 0, A: 4},
		{At: 1500 * time.Millisecond, Comp: telemetry.CompRR, Kind: telemetry.KRecoveryExit, Flow: 0, A: 5},
		{At: 2 * time.Second, Comp: telemetry.CompSender, Kind: telemetry.KFlowDone, Flow: 0},
	} {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

// decodeAll decodes a log into an unbounded Ring and returns its events.
func decodeAll(log string) ([]telemetry.Event, telemetry.DecodeStats, error) {
	ring := telemetry.NewRing(0)
	stats, err := telemetry.DecodeNDJSON(strings.NewReader(log), ring)
	return ring.Events(), stats, err
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus", writeLog(t)}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"summary"}); err == nil {
		t.Fatal("missing path accepted")
	}
	if err := run([]string{"summary", "/does/not/exist.ndjson"}); err == nil {
		t.Fatal("nonexistent file accepted")
	}
}

func TestSummary(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"summary", writeLog(t)}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"7 events", "episodes", "fwd", "exit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFilterByComp(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"filter", "-comp", "rr", writeLog(t)})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("filtered lines = %d, want 3:\n%s", len(lines), out)
	}
	// Output must itself be decodable NDJSON.
	evs, stats, err := decodeAll(out)
	if err != nil || stats.Skipped > 0 || stats.Unknown > 0 {
		t.Fatalf("filter output not valid NDJSON: err=%v stats=%+v", err, stats)
	}
	if evs[0].Kind != telemetry.KRecoveryEnter {
		t.Fatalf("first filtered kind = %v", evs[0].Kind)
	}
}

func TestFilterByKindAndTime(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"filter", "-kind", "drop", "-from", "0.5", "-to", "1.0", writeLog(t)})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	evs, stats, err := decodeAll(out)
	if err != nil || stats.Skipped > 0 || len(evs) != 1 || evs[0].Src != "fwd" {
		t.Fatalf("filter wrong: events=%+v stats=%+v err=%v", evs, stats, err)
	}
}

func TestTimeline(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"timeline", "-flow", "0", "-width", "40", "-height", "8", writeLog(t)})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"flow 0", "phase:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestStdinInput(t *testing.T) {
	data, err := os.ReadFile(writeLog(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	oldIn := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = oldIn }()
	go func() {
		w.Write(data)
		w.Close()
	}()
	out, err := capture(t, func() error { return run([]string{"summary", "-"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "7 events") {
		t.Fatalf("stdin summary wrong:\n%s", out)
	}
}

// A log with torn or corrupt lines (a crashed run, a partial flush)
// must still summarize: bad lines are skipped with a stderr warning,
// good ones survive — but the command exits non-zero so scripts can
// tell the answer came from a damaged log.
func TestMalformedLinesSkippedWithWarning(t *testing.T) {
	good, err := os.ReadFile(writeLog(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(good)), "\n")
	mangled := []string{
		lines[0],
		`{"t":"not a number"}`,
		lines[1],
		`{"truncated`,
		"not json at all",
	}
	mangled = append(mangled, lines[2:]...)
	path := filepath.Join(t.TempDir(), "mangled.ndjson")
	if err := os.WriteFile(path, []byte(strings.Join(mangled, "\n")+"\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	out, warn, runErr := captureBoth(t, "summary", path)
	if runErr == nil {
		t.Fatal("damaged log exited zero")
	}
	if !strings.Contains(runErr.Error(), "skipped 3 malformed line(s)") {
		t.Fatalf("error does not report the skip count: %v", runErr)
	}
	if !strings.Contains(out, "7 events") {
		t.Fatalf("summary lost good events:\n%s", out)
	}
	if !strings.Contains(warn, "skipped 3 malformed line(s)") {
		t.Fatalf("missing skip warning, got: %q", warn)
	}
}

func TestSpansCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"spans", writeLog(t)}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"segment 0", "conn flow=0", "recovery flow=0", "retreat", "probe", "exit_cwnd=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spans output missing %q:\n%s", want, out)
		}
	}
}

func TestExportChrome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, err := capture(t, func() error {
		return run([]string{"export", "-format", "chrome", "-out", path, writeLog(t)})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if !strings.Contains(string(data), `"recovery"`) {
		t.Fatalf("trace missing recovery span:\n%s", data)
	}
}

func TestExportCSVToStdout(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"export", "-format", "csv", writeLog(t)})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out, "seg,comp,src,flow,t,value\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
}

func TestExportUnknownFormat(t *testing.T) {
	if err := run([]string{"export", "-format", "yaml", writeLog(t)}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
