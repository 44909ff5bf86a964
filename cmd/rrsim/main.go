// Command rrsim regenerates the tables and figures of "Robust TCP
// Congestion Recovery" (Wang & Shin, ICDCS 2001).
//
//	rrsim <experiment> [flags]       one experiment of the registry
//	rrsim chaos -replay f            replay a violation repro bundle
//	rrsim run [flags] <file.json>    run a user-defined scenario (see examples/scenarios)
//	rrsim all [flags]                every experiment except chaos
//
// Every experiment is a named entry in the rrtcp experiment registry;
// rrsim derives its dispatch table, usage text and each command's flags
// from it. A command's flags are exactly the ones it reads: those of the
// options its registration lists plus the sweep harness flags (-json,
// -parallel, -checkpoint, ...), and for all the ones of its experiments
// but -events and -flow-stats. Any other flag is refused before
// anything runs. rrsim with no arguments lists the experiments; rrsim
// <command> -h lists the command's flags.
//
// Independent runs inside an experiment fan out across a worker pool;
// -parallel bounds the pool (0 = GOMAXPROCS, 1 = sequential) and the
// output is byte-identical at any setting. -progress renders a live
// status line on stderr.
//
// A job's outcome is its seed's: each runs once, and a failure (error,
// panic, invariant violation) is reported with the seed that replays
// it. Resilience flags guard against the host, never change an output
// byte: -checkpoint DIR journals each completed job of any experiment,
// all included, so a killed run can continue with -resume (the merged
// output stays byte-identical to an uninterrupted run; a journal
// resumes only the experiment configuration that wrote it);
// -stall-after reports hung jobs on stderr and /progress;
// -progress-events writes the sweep lifecycle stream
// (including stalls) as NDJSON for rrtrace summary. SIGINT/SIGTERM shut
// down gracefully — dispatch stops, in-flight jobs drain, the journal
// and telemetry sinks flush — and a second signal aborts immediately.
//
// Overload guardrails (stress): -budget-events arms a per-cell
// processed-event budget; a cell that trips it, or the always-armed
// event-storm detector, degrades into a reported outcome instead of
// failing the sweep. -cells and -flows size the stress soak.
//
// Observability: rrsim produces one record of a run, and rrtrace reads
// it. -events streams structured telemetry as NDJSON; rrtrace renders
// it offline (rrtrace export for Chrome trace-event JSON openable in
// Perfetto, rrtrace metrics for the aggregated metrics snapshot, and
// summary, spans, flows, timeline). A scenario run publishing telemetry
// samples its gauges every 10 ms, as fig5 does, so the trace has
// counter tracks. Of the experiments only fig5 and stress publish
// telemetry, so only they take -events. -pprof writes cpu.pprof and
// heap.pprof runtime profiles of the simulator itself.
//
// Flow-scale analytics (fig5, chaos, stress): -flow-stats folds every
// flow's lifecycle events into aggregate per-variant accounting — FCT
// quantiles, goodput, retransmission load, windowed Jain fairness —
// appended to the result as a flow report; -flow-exemplars K keeps a
// seeded reservoir of K flows in full detail; -flow-csv FILE writes the
// per-variant rows as CSV. It stays a live flag because chaos publishes
// no events to replay, and one flag with one meaning on all three is
// simpler than sending fig5 and stress to rrtrace flows.
//
// -http :PORT serves live introspection while the run executes:
// /metrics (Prometheus text format), /progress (sweep progress as
// JSON), /flows (flow analytics as JSON), /healthz, and /debug/pprof.
// See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"rrtcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage())
	}
	cmd, rest := args[0], args[1:]
	var s settings
	fs, err := s.flagSet(cmd)
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// Only run takes an operand, its scenario file, so a flag after a
	// stray word is refused rather than dropped with it.
	if n := fs.NArg(); cmd == "run" && n != 1 {
		return fmt.Errorf("usage: rrsim run [flags] <scenario.json>")
	} else if cmd != "run" && n != 0 {
		return fmt.Errorf("%s takes no operand, got %q", cmd, fs.Args())
	}

	runOpt := &s.runOpt
	if runOpt.Resume && runOpt.CheckpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if runOpt.CheckpointDir != "" {
		runOpt.OnCheckpoint = func(dir string, restored, skipped int) {
			if restored > 0 || skipped > 0 {
				fmt.Fprintf(os.Stderr, "rrsim: checkpoint %s: restored %d job(s), skipped %d stale record(s)\n",
					dir, restored, skipped)
			} else {
				fmt.Fprintf(os.Stderr, "rrsim: checkpointing to %s\n", dir)
			}
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep
	// context — dispatch stops, in-flight jobs drain, the checkpoint
	// journal and telemetry sinks flush, the obs server shuts down — and
	// a second signal aborts immediately.
	ctx, stopSignals := signalContext()
	defer stopSignals()
	runOpt.Context = ctx

	if s.flowCSV != "" && !s.opts.FlowStats {
		return fmt.Errorf("-flow-csv requires -flow-stats")
	}

	// The progress bus carries sweep lifecycle events (published on the
	// coordinating goroutine); the -progress status line and the live
	// introspection sinks both subscribe to it.
	var progressSinks []rrtcp.TelemetrySink
	if s.progress {
		progressSinks = append(progressSinks, rrtcp.NewProgressSink(os.Stderr))
	}
	// Sweep lifecycle events are wall-clock and completion-ordered, so
	// they get their own NDJSON file rather than polluting the
	// deterministic -events stream. The sink's write error is checked at
	// exit — a full disk must fail the run, not vanish into a warning.
	var closers []func() error
	if s.progressEvents != "" {
		f, err := os.Create(s.progressEvents)
		if err != nil {
			return fmt.Errorf("create -progress-events file: %w", err)
		}
		nd := rrtcp.NewNDJSONSink(f)
		closers = append(closers, func() error {
			if err := errors.Join(nd.Close(), f.Close()); err != nil {
				return fmt.Errorf("flush -progress-events: %w", err)
			}
			return nil
		})
		progressSinks = append(progressSinks, nd)
	}
	if s.httpAddr != "" {
		liveMetrics := rrtcp.NewMetricsSink()
		liveProgress := rrtcp.NewProgressState()
		progressSinks = append(progressSinks, liveMetrics, liveProgress)
		s.live = liveMetrics
		if s.opts.FlowStats {
			// The live table behind /flows subscribes to the shared
			// telemetry bus, filling as experiments republish per-job
			// streams (chaos/stress keep run events private-bounded and
			// surface flow analytics via the result report instead); the
			// per-job tables behind the result's flow report are separate,
			// so scraping never perturbs the deterministic output.
			s.flows = rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{
				Exemplars: s.opts.FlowExemplars,
				Seed:      s.opts.Seed,
				Registry:  liveMetrics.R,
			})
		}
		srv := rrtcp.NewObsServer(liveMetrics.R, liveProgress, s.flows)
		addr, err := srv.Start(s.httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rrsim: introspection server on http://%s (/metrics /progress /flows /healthz /debug/pprof)\n", addr)
	}
	if len(progressSinks) > 0 {
		runOpt.Progress = rrtcp.NewTelemetryBus(progressSinks...)
	}
	do := func() error {
		switch {
		case cmd == "run":
			return s.runScenario(fs.Arg(0))
		case cmd == "all":
			return s.runAll()
		case s.replay != "":
			return runChaosReplay(s.replay)
		}
		return s.runExperiment(cmd)
	}
	runErr := func() error {
		if s.pprofDir != "" {
			return withProfiles(s.pprofDir, do)
		}
		return do()
	}()
	for _, c := range closers {
		if cerr := c(); runErr == nil {
			runErr = cerr
		}
	}
	return runErr
}

// settings is one invocation: what its flags set, each flag binding
// one field (the experiment's options and the sweep's run options
// among them, so nothing is copied out of the parsed flags), and the
// live sinks -http adds.
type settings struct {
	opts                       rrtcp.ExperimentOptions
	runOpt                     rrtcp.ExperimentRunOptions
	json, progress             bool
	events, flowCSV, traceOut  string
	pprofDir, replay, httpAddr string
	progressEvents             string
	live                       rrtcp.TelemetrySink // -http live metrics sink, also fed simulation events
	flows                      *rrtcp.FlowTable    // -http live flow table behind /flows
}

// flagSet returns cmd's flag set, which holds the flags cmd reads and no
// other: of the flags declare binds to s, the ones flagsOf names.
func (s *settings) flagSet(cmd string) (*flag.FlagSet, error) {
	names, ok := flagsOf(cmd)
	if !ok {
		return nil, fmt.Errorf("unknown command %q\n%s", cmd, usage())
	}
	all := s.declare()
	fs := flag.NewFlagSet("rrsim "+cmd, flag.ContinueOnError)
	for _, name := range names {
		if f := all.Lookup(name); fs.Lookup(name) == nil {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	}
	return fs, nil
}

// declare defines every rrsim flag once — its name, default and help —
// bound to a field of s.
func (s *settings) declare() *flag.FlagSet {
	all := flag.NewFlagSet("rrsim", flag.ContinueOnError)
	o, r := &s.opts, &s.runOpt
	all.IntVar(&o.Runs, "runs", 100, "fault schedules to run, each under every variant")
	all.IntVar(&o.Drops, "drops", 3, "packets lost within one window")
	all.Int64Var(&o.Seed, "seed", 0, "simulation seed (0 = experiment default)")
	all.BoolVar(&o.Quick, "quick", false, "smaller sweeps for fast runs")
	all.Func("variants", "comma-separated variant `list`, e.g. tahoe,rr,fack (default: the experiment's)", func(list string) error {
		o.Variants = nil
		if list == "" {
			return nil
		}
		for _, name := range strings.Split(list, ",") {
			kind, err := rrtcp.ParseKind(name)
			if err != nil {
				return err
			}
			o.Variants = append(o.Variants, kind)
		}
		return nil
	})
	all.BoolVar(&o.DelayedAck, "delack", false, "run receivers with delayed ACKs")
	all.Int64Var(&o.Bytes, "bytes", 0, "per-flow transfer size in bytes (0 = default)")
	all.DurationVar(&o.Horizon, "horizon", 0, "per-run simulated-time bound (0 = default)")
	all.StringVar(&o.BundleDir, "bundles", "", "`directory` for violation repro bundles")
	all.IntVar(&o.Cells, "cells", 0, "independent simulation cells (0 = default)")
	all.IntVar(&o.Flows, "flows", 0, "concurrent flows per cell (0 = default)")
	all.Uint64Var(&o.MaxEvents, "budget-events", 0, "per-cell processed-event budget; a cell exceeding it degrades (0 = off)")
	all.BoolVar(&o.FlowStats, "flow-stats", false, "fold flow lifecycle events into the aggregate flow-analytics layer; the result gains a per-variant FCT/goodput/fairness report")
	all.IntVar(&o.FlowExemplars, "flow-exemplars", 0, "reservoir of exemplar flows kept in full detail by -flow-stats (0 = aggregates only)")
	all.StringVar(&s.flowCSV, "flow-csv", "", "write the -flow-stats per-variant report as CSV to this `file`")
	all.StringVar(&s.events, "events", "", "stream structured telemetry as NDJSON to this `file`, for rrtrace")
	all.StringVar(&s.replay, "replay", "", "replay a repro bundle `file` instead of sweeping")
	all.StringVar(&s.traceOut, "trace", "", "write flow 0's event trace as CSV to this `file`")
	all.BoolVar(&s.json, "json", false, "emit the result as JSON instead of a table")
	all.StringVar(&s.pprofDir, "pprof", "", "write cpu.pprof and heap.pprof runtime profiles into this `directory`")
	all.IntVar(&r.Parallel, "parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = sequential)")
	all.BoolVar(&s.progress, "progress", false, "render live sweep progress on stderr")
	all.StringVar(&s.httpAddr, "http", "", "serve live introspection (/metrics, /progress, /healthz, /debug/pprof) on this `address`, e.g. :8080")
	all.StringVar(&r.CheckpointDir, "checkpoint", "", "journal completed sweep jobs under this `directory` so an interrupted run can resume")
	all.BoolVar(&r.Resume, "resume", false, "restore jobs journaled by a previous interrupted run (requires -checkpoint)")
	all.DurationVar(&r.StallAfter, "stall-after", 0, "report jobs in flight longer than this as stalled, on stderr and /progress (0 = off)")
	all.StringVar(&s.progressEvents, "progress-events", "", "stream sweep lifecycle events (start/job/done, stalls) as NDJSON to this `file`, for rrtrace summary")
	return all
}

// harness lists the flags every sweep command reads: they steer how the
// sweep runs and reports, never what it computes.
var harness = []string{"json", "pprof", "parallel", "progress", "http", "checkpoint", "resume", "stall-after", "progress-events"}

// flagsOf lists the flags cmd reads, false for no such command. An
// experiment reads the harness's, the options its registration lists,
// -flow-csv beside -flow-stats (rrsim writes the report -flow-stats
// adds) and, for chaos, -replay. all reads the harness's and its
// experiments' options but -events and -flow-stats (with
// -flow-exemplars), which most of them would ignore. run reads what
// runScenario does.
func flagsOf(cmd string) ([]string, bool) {
	if cmd == "run" {
		return []string{"json", "pprof", "http", "events", "trace"}, true
	}
	names := harness
	for _, r := range rrtcp.Experiments() {
		switch {
		case r.Name == cmd:
			names = slices.Concat(names, r.Flags)
			if slices.Contains(r.Flags, "flow-stats") {
				names = append(names, "flow-csv")
			}
			if cmd == "chaos" {
				names = append(names, "replay")
			}
			return names, true
		case cmd == "all" && r.Name != "chaos":
			for _, name := range r.Flags {
				if name != "events" && name != "flow-stats" && name != "flow-exemplars" {
					names = append(names, name)
				}
			}
		}
	}
	return names, cmd == "all"
}

// signalContext returns a context canceled by the first SIGINT or
// SIGTERM, so a sweep drains cleanly (partial results journaled,
// telemetry flushed). A second signal hard-exits with the conventional
// 128+SIGINT status. The returned stop func detaches the handler.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\nrrsim: %v — stopping dispatch, draining in-flight jobs (interrupt again to abort)\n", sig)
		cancel(fmt.Errorf("received %v", sig))
		if sig, ok = <-ch; ok {
			fmt.Fprintf(os.Stderr, "rrsim: %v again — aborting\n", sig)
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel(nil)
	}
}

// withProfiles brackets fn with a CPU profile and snapshots the heap
// after it returns, writing cpu.pprof and heap.pprof into dir.
func withProfiles(dir string, fn func() error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	runtime.GC() // settle the heap so the snapshot reflects live data
	return errors.Join(runErr, cpu.Close(), writeFile(filepath.Join(dir, "heap.pprof"), pprof.WriteHeapProfile))
}

// writeFile creates path and has write fill it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// usage builds the top-level help text from the experiment registry.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: rrsim <experiment> [flags]\n\nexperiments:\n")
	for _, r := range rrtcp.Experiments() {
		fmt.Fprintf(&b, "  %-12s %s\n", r.Name, r.Desc)
	}
	b.WriteString("  run <file>   run a user-defined scenario (see examples/scenarios)\n")
	b.WriteString("  all          every experiment above except chaos")
	return b.String()
}

// runExperiment builds a registered experiment from the invocation's
// options, executes it on the sweep pool, and emits the result. Results
// that report invariant violations (chaos) turn into a non-zero exit.
func (s *settings) runExperiment(name string) error {
	bus, finish, err := s.telemetrySetup()
	if err != nil {
		return err
	}
	opts := s.opts
	opts.Telemetry = bus
	var res rrtcp.ExperimentResult
	e, err := rrtcp.BuildExperiment(name, opts)
	if err == nil {
		res, err = rrtcp.RunExperiment(e, s.runOpt)
	}
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if err := s.emit(res.Render(), res); err != nil {
		return err
	}
	if s.flowCSV != "" {
		fr, ok := res.(interface{ FlowReport() rrtcp.FlowReport })
		if !ok {
			return fmt.Errorf("%s does not produce a flow report (-flow-csv)", name)
		}
		if err := writeFile(s.flowCSV, fr.FlowReport().WriteCSV); err != nil {
			return fmt.Errorf("write -flow-csv: %w", err)
		}
	}
	if v, ok := res.(interface{ Violated() int }); ok {
		if n := v.Violated(); n > 0 {
			return fmt.Errorf("%s: %d invariant violation(s)", name, n)
		}
	}
	return nil
}

// runAll reproduces the whole evaluation: every registered experiment
// in canonical order, with fig5 at both burst sizes the paper plots.
// The chaos sweep is skipped — it is a robustness harness, not a paper
// figure. No simulation event reaches the live sinks.
func (s *settings) runAll() error {
	for _, r := range rrtcp.Experiments() {
		drops := []int{s.opts.Drops}
		switch r.Name {
		case "chaos":
			continue
		case "fig5":
			drops = []int{3, 6}
		}
		for _, d := range drops {
			one := *s
			one.opts.Drops, one.live = d, nil
			if err := one.runExperiment(r.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit writes one result to stdout: its rendering, or with -json the
// result itself.
func (s *settings) emit(rendered string, result any) error {
	if s.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	}
	_, err := fmt.Println(rendered)
	return err
}

// telemetrySetup builds the bus behind -events and -http. The returned
// finish func flushes the NDJSON stream; it must run even when the
// experiment fails.
func (s *settings) telemetrySetup() (*rrtcp.TelemetryBus, func() error, error) {
	var sinks []rrtcp.TelemetrySink
	if s.live != nil {
		sinks = append(sinks, s.live)
	}
	if s.flows != nil {
		sinks = append(sinks, s.flows)
	}
	finish := func() error { return nil }
	if s.events != "" {
		f, err := os.Create(s.events)
		if err != nil {
			return nil, nil, err
		}
		nd := rrtcp.NewNDJSONSink(f)
		sinks = append(sinks, nd)
		finish = func() error { return errors.Join(nd.Close(), f.Close()) }
	}
	return rrtcp.NewTelemetryBus(sinks...), finish, nil
}

func (s *settings) runScenario(path string) error {
	spec, err := rrtcp.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	bus, finish, err := s.telemetrySetup()
	if err != nil {
		return err
	}
	// Sampled gauges become the counter tracks of rrtrace export's
	// Chrome trace; the sampler runs only when a bus is attached.
	spec.Telemetry, spec.SampleEvery = bus, 10*time.Millisecond
	// A nil trace writer runs the scenario without the flow-0 CSV.
	var trace io.Writer
	closeTrace := func() error { return nil }
	if s.traceOut != "" {
		f, err := os.Create(s.traceOut)
		if err != nil {
			finish()
			return err
		}
		trace, closeTrace = f, f.Close
	}
	rep, err := spec.RunWithTrace(trace)
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	return s.emit(rep.RenderText(), rep)
}

func runChaosReplay(path string) error {
	b, err := rrtcp.LoadChaosBundle(path)
	if err != nil {
		return err
	}
	out, err := rrtcp.ReplayChaosBundle(b)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("bundle %s reproduced:\n  case: %s seed=%d\n  violation: %s\n  (%d violations total, finished=%v)\n",
		path, b.Case.Variant, b.Case.Seed, out.Violations[0], len(out.Violations), out.Finished)
	return err
}
