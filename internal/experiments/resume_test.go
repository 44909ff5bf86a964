package experiments

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// cancelAfter returns a context plus a telemetry sink that cancels it
// once n sweep jobs have completed — a seeded, reproducible stand-in
// for killing the process mid-sweep. The sink runs on the sweep's
// coordinating goroutine, so the cut point is the same every run at
// workers=1 and varies only in which in-flight jobs drain at higher
// counts (which the checkpoint journal absorbs either way).
func cancelAfter(n int) (context.Context, telemetry.Sink) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, cancelSink(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KSweepJob && ev.A >= float64(n) {
			cancel()
		}
	})
}

type cancelSink func(telemetry.Event)

func (f cancelSink) Emit(ev telemetry.Event) { f(ev) }

// assertResumeIdentical is the crash-recovery contract: interrupt a
// checkpointed sweep mid-flight, resume it, and the reduced output must
// be byte-identical to an uninterrupted run — at any worker count.
func assertResumeIdentical(t *testing.T, build func() Experiment, cutAfter int) {
	t.Helper()
	baseRender, baseJSON := runAt(t, build, 1)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ctx, sink := cancelAfter(cutAfter)
		_, err := Run(build(), RunOptions{
			Parallel:      workers,
			Context:       ctx,
			Progress:      telemetry.NewBus(sink),
			CheckpointDir: dir,
		})
		// When every job left is already in flight as the cancel fires,
		// they drain and the sweep completes: also a crash point to
		// resume from, with the whole journal written.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: interrupted run returned %v, want cancellation or completion", workers, err)
		}

		var restored int
		res, err := Run(build(), RunOptions{
			Parallel:      workers,
			CheckpointDir: dir,
			Resume:        true,
			OnCheckpoint:  func(_ string, r, _ int) { restored = r },
		})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if restored < cutAfter {
			t.Fatalf("workers=%d: resume restored %d jobs, want >= %d", workers, restored, cutAfter)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Render() != baseRender {
			t.Fatalf("workers=%d: resumed rendering differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
				workers, baseRender, res.Render())
		}
		if string(b) != baseJSON {
			t.Fatalf("workers=%d: resumed JSON differs from uninterrupted run", workers)
		}
	}
}

// Every registered experiment journals its jobs and resumes
// byte-identically, at small options.
func TestEveryExperimentResumes(t *testing.T) {
	opts := Options{Quick: true, Runs: 2, Cells: 3, Flows: 8}
	for _, r := range Experiments() {
		t.Run(r.Name, func(t *testing.T) {
			assertResumeIdentical(t, func() Experiment {
				e, err := r.Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, 1)
		})
	}
}

// A checkpoint resumes only the configuration that wrote it: fig5's
// drop count and the stress soak's flow count name no job and change
// no seed, yet a journal written under one value restores nothing into
// a run under another, whose output is then a fresh run's.
func TestCheckpointKeyCoversConfig(t *testing.T) {
	for _, c := range []struct {
		name          string
		wrote, resume Options
	}{
		{"fig5", Options{Drops: 3}, Options{Drops: 6}},
		{"stress", Options{Cells: 2, Flows: 8, Horizon: 10 * time.Second}, Options{Cells: 2, Flows: 16, Horizon: 10 * time.Second}},
	} {
		build := func(o Options) func() Experiment {
			return func() Experiment {
				e, err := Build(c.name, o)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
		}
		dir := t.TempDir()
		if _, err := Run(build(c.wrote)(), RunOptions{CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		freshRender, freshJSON := runAt(t, build(c.resume), 1)
		restored := -1
		res, err := Run(build(c.resume)(), RunOptions{
			CheckpointDir: dir, Resume: true,
			OnCheckpoint: func(_ string, r, _ int) { restored = r },
		})
		if err != nil {
			t.Fatal(err)
		}
		if restored != 0 {
			t.Errorf("%s: resuming %+v restored %d jobs journaled under %+v", c.name, c.resume, restored, c.wrote)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Render() != freshRender || string(b) != freshJSON {
			t.Errorf("%s: resumed output differs from a fresh run:\n--- fresh ---\n%s\n--- resumed ---\n%s",
				c.name, freshRender, res.Render())
		}
	}
}

func TestChaosResumeByteIdentical(t *testing.T) {
	assertResumeIdentical(t, func() Experiment {
		return NewChaosExperiment(ChaosConfig{
			Schedules: 3,
			Seed:      5,
			Variants:  []workload.Kind{workload.SACK, workload.RR, workload.FACK},
			Bytes:     50 * 1000,
			Horizon:   30 * time.Second,
		})
	}, 3)
}

// TestFigure5ResumeTelemetryByteIdentical extends the crash-recovery
// contract to the republished event stream: because each job's captured
// events are journaled inside its result, a resumed figure-5 run must
// emit the same NDJSON telemetry, byte for byte, as an uninterrupted
// one.
func TestFigure5ResumeTelemetryByteIdentical(t *testing.T) {
	variants := []workload.Kind{workload.NewReno, workload.RR, workload.FACK}
	capture := func(run func(e Experiment) error) (string, error) {
		var buf bytes.Buffer
		nd := telemetry.NewNDJSONSink(&buf)
		e := NewFigure5Experiment(Figure5Config{Variants: variants, Telemetry: telemetry.NewBus(nd)})
		err := run(e)
		if cerr := nd.Close(); cerr != nil {
			t.Fatalf("close sink: %v", cerr)
		}
		return buf.String(), err
	}

	// Uninterrupted baseline.
	var baseRender string
	baseEvents, err := capture(func(e Experiment) error {
		res, err := Run(e, RunOptions{Parallel: 1})
		if err == nil {
			baseRender = res.Render()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if baseEvents == "" {
		t.Fatal("baseline run emitted no telemetry")
	}

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		// Interrupted run: its Reduce never executes, so its own stream
		// is irrelevant; what matters is the journal it leaves.
		ctx, sink := cancelAfter(1)
		_, err := capture(func(e Experiment) error {
			_, err := Run(e, RunOptions{
				Parallel:      workers,
				Context:       ctx,
				Progress:      telemetry.NewBus(sink),
				CheckpointDir: dir,
			})
			return err
		})
		// With more workers than remaining jobs everything is already in
		// flight when the cancel fires, and draining cleanly means the
		// sweep completes — also a valid crash point to resume from.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: interrupted run returned %v, want cancellation or completion", workers, err)
		}

		var resRender string
		resEvents, err := capture(func(e Experiment) error {
			res, err := Run(e, RunOptions{
				Parallel:      workers,
				CheckpointDir: dir,
				Resume:        true,
			})
			if err == nil {
				resRender = res.Render()
			}
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if resRender != baseRender {
			t.Fatalf("workers=%d: resumed rendering differs from baseline", workers)
		}
		if resEvents != baseEvents {
			t.Fatalf("workers=%d: resumed NDJSON telemetry differs from baseline", workers)
		}
	}
}

// TestResumeParentJournal resumes a journal committed as written by an
// earlier build (`rrsim fig5 -variants rr -events ... -checkpoint ...`).
// Its captured events carry telemetry kinds as JSON numbers, flow-start
// and flow-done among them, numbered after the retired sweep-retry
// slot: the resumed run must restore the job and republish the same
// NDJSON stream, byte for byte, as a fresh run.
func TestResumeParentJournal(t *testing.T) {
	build := func(bus *telemetry.Bus) Experiment {
		return NewFigure5Experiment(Figure5Config{Drops: 3, Variants: []workload.Kind{workload.RR}, Telemetry: bus})
	}
	capture := func(opt RunOptions) (string, string) {
		t.Helper()
		var buf bytes.Buffer
		nd := telemetry.NewNDJSONSink(&buf)
		res, err := Run(build(telemetry.NewBus(nd)), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
		return res.Render(), buf.String()
	}
	baseRender, baseEvents := capture(RunOptions{Parallel: 1})

	f, err := os.Open(filepath.Join("testdata", "fig5_rr_journal.ndjson.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	e := build(nil)
	jobs, err := e.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := journalJobs(e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jdir := filepath.Join(dir, "sweep-fig5-"+sweep.SweepKey("fig5", keyed))
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jdir, "journal.ndjson"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	var restored int
	render, events := capture(RunOptions{
		CheckpointDir: dir, Resume: true,
		OnCheckpoint: func(_ string, r, _ int) { restored = r },
	})
	if restored != 1 {
		t.Fatalf("resume restored %d jobs from the committed journal, want 1", restored)
	}
	if render != baseRender {
		t.Fatalf("resumed rendering differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", baseRender, render)
	}
	if events != baseEvents {
		t.Fatal("resumed NDJSON telemetry differs from a fresh run: a kind changed its number")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !bytes.Contains([]byte(s), []byte(sub)) {
			return false
		}
	}
	return true
}
