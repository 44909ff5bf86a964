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
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: interrupted run returned %v, want cancellation", workers, err)
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
	jobs, err := build(nil).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jdir := filepath.Join(dir, "sweep-fig5-"+sweep.SweepKey("fig5", jobs))
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

// TestRunCheckpointRequiresCodec pins the failure mode for experiments
// that cannot round-trip their results.
func TestRunCheckpointRequiresCodec(t *testing.T) {
	e := NewFigure6Experiment(Figure6Config{})
	_, err := Run(e, RunOptions{CheckpointDir: t.TempDir()})
	if err == nil || !containsAll(err.Error(), "fig6", "checkpoint") {
		t.Fatalf("got %v, want a no-codec error naming the experiment", err)
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
