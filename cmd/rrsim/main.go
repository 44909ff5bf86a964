// Command rrsim regenerates the tables and figures of "Robust TCP
// Congestion Recovery" (Wang & Shin, ICDCS 2001).
//
// Every experiment is a named entry in the rrtcp experiment registry;
// rrsim derives its dispatch table and usage text from it:
//
//	rrsim fig5 [-drops n]        Figure 5: drop-tail burst-loss throughput
//	rrsim fig6 [-seed n]         Figure 6: RED-gateway sequence traces
//	rrsim fig7 [-quick]          Figure 7: square-root-model fitness
//	rrsim table5                 Table 5: fairness matrix
//	rrsim ackloss                §2.3 ACK-loss robustness sweep
//	rrsim fairshare              §2.3 fair-share gateways (FIFO vs DRR)
//	rrsim twoway                 two-way traffic extension
//	rrsim smoothstart            slow-start overshoot vs Smooth-start [21]
//	rrsim bursty                 Gilbert-Elliott correlated-loss sweep
//	rrsim ablation [-drops n]    RR design-choice ablations
//	rrsim chaos [-runs n]        seeded-random fault sweep under invariant checking
//	rrsim chaos -replay f        replay a violation repro bundle
//	rrsim stress [-cells n]      overload soak: many-flow cells under chaos and budgets
//	rrsim run <file.json>        run a user-defined scenario (see examples/scenarios)
//	rrsim all [-quick]           everything above except chaos
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
// telemetry; -events on any other (or on all) is an error. -pprof
// writes cpu.pprof and heap.pprof runtime profiles of the simulator
// itself.
//
// Flow-scale analytics (fig5, chaos, stress; an error on any other):
// -flow-stats folds every flow's lifecycle events into aggregate
// per-variant accounting — FCT quantiles, goodput, retransmission load,
// windowed Jain fairness — appended to the result as a flow report;
// -flow-exemplars K keeps a seeded reservoir of K flows in full detail;
// -flow-csv FILE writes the per-variant rows as CSV. It stays a live
// flag because chaos publishes no events to replay, and one flag with
// one meaning on all three is simpler than sending fig5 and stress to
// rrtrace flows.
//
// -http :PORT serves live introspection while the run executes:
// /metrics (Prometheus text format), /progress (sweep progress as
// JSON), /flows (flow analytics as JSON), /healthz, and /debug/pprof.
// See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	runs := fs.Int("runs", 100, "independent repetitions where the experiment takes a count (chaos: fault schedules)")
	drops := fs.Int("drops", 3, "packets lost within one window (fig5/ablation)")
	seed := fs.Int64("seed", 0, "simulation seed for fig5, fig6, fairshare, smoothstart, chaos and stress (0 = experiment default); fig7, table5, ackloss, twoway, bursty and ablation run their fixed seed lists")
	quick := fs.Bool("quick", false, "smaller sweeps for fast runs (fig7/all)")
	variants := fs.String("variants", "", "comma-separated variant list, e.g. tahoe,rr,fack")
	delack := fs.Bool("delack", false, "run receivers with delayed ACKs (fig7)")
	traceOut := fs.String("trace", "", "write flow 0's event trace as CSV to this file (run)")
	events := fs.String("events", "", "stream structured telemetry as NDJSON to this file, for rrtrace (fig5/stress/run)")
	pprofDir := fs.String("pprof", "", "write cpu.pprof and heap.pprof runtime profiles into this directory")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of a table")
	bytes := fs.Int64("bytes", 0, "per-flow transfer size in bytes (chaos, 0 = default)")
	horizon := fs.Duration("horizon", 0, "per-run simulated-time bound (chaos, 0 = default)")
	bundles := fs.String("bundles", "", "directory for violation repro bundles (chaos)")
	replay := fs.String("replay", "", "replay a repro bundle instead of sweeping (chaos)")
	parallel := fs.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = sequential)")
	progress := fs.Bool("progress", false, "render live sweep progress on stderr")
	httpAddr := fs.String("http", "", "serve live introspection (/metrics, /progress, /healthz, /debug/pprof) on this address, e.g. :8080")
	checkpoint := fs.String("checkpoint", "", "journal completed sweep jobs under this directory so an interrupted run can resume (every experiment, all included)")
	resume := fs.Bool("resume", false, "restore jobs journaled by a previous interrupted run (requires -checkpoint)")
	stallAfter := fs.Duration("stall-after", 0, "report jobs in flight longer than this as stalled, on stderr and /progress (0 = off)")
	progressEvents := fs.String("progress-events", "", "stream sweep lifecycle events (start/job/done, stalls) as NDJSON to this file, for rrtrace summary")
	cells := fs.Int("cells", 0, "independent simulation cells (stress, 0 = default)")
	flows := fs.Int("flows", 0, "concurrent flows per cell (stress, 0 = default)")
	budgetEvents := fs.Uint64("budget-events", 0, "per-cell processed-event budget; a cell exceeding it degrades (stress, 0 = off)")
	flowStats := fs.Bool("flow-stats", false, "fold flow lifecycle events into the aggregate flow-analytics layer; the result gains a per-variant FCT/goodput/fairness report (fig5/chaos/stress)")
	flowExemplars := fs.Int("flow-exemplars", 0, "reservoir of exemplar flows kept in full detail by -flow-stats (0 = aggregates only)")
	flowCSV := fs.String("flow-csv", "", "write the -flow-stats per-variant report as CSV to this file")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	emit := renderText
	if *asJSON {
		emit = renderJSON
	}

	opts := rrtcp.ExperimentOptions{
		Seed:          *seed,
		Runs:          *runs,
		Drops:         *drops,
		Quick:         *quick,
		DelayedAck:    *delack,
		Bytes:         *bytes,
		Horizon:       *horizon,
		BundleDir:     *bundles,
		Cells:         *cells,
		Flows:         *flows,
		MaxEvents:     *budgetEvents,
		FlowStats:     *flowStats,
		FlowExemplars: *flowExemplars,
	}
	if *variants != "" {
		for _, name := range strings.Split(*variants, ",") {
			kind, err := rrtcp.ParseKind(name)
			if err != nil {
				return err
			}
			opts.Variants = append(opts.Variants, kind)
		}
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	runOpt := rrtcp.ExperimentRunOptions{
		Parallel:      *parallel,
		StallAfter:    *stallAfter,
		CheckpointDir: *checkpoint,
		Resume:        *resume,
	}
	if *checkpoint != "" {
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

	tel := telemetryOpts{events: *events, flowCSV: *flowCSV}
	if *flowCSV != "" && !*flowStats {
		return fmt.Errorf("-flow-csv requires -flow-stats")
	}

	// The progress bus carries sweep lifecycle events (published on the
	// coordinating goroutine); the -progress status line and the live
	// introspection sinks both subscribe to it.
	var progressSinks []rrtcp.TelemetrySink
	if *progress {
		progressSinks = append(progressSinks, rrtcp.NewProgressSink(os.Stderr))
	}
	// Sweep lifecycle events are wall-clock and completion-ordered, so
	// they get their own NDJSON file rather than polluting the
	// deterministic -events stream. The sink's write error is checked at
	// exit — a full disk must fail the run, not vanish into a warning.
	var closers []func() error
	if *progressEvents != "" {
		f, err := os.Create(*progressEvents)
		if err != nil {
			return fmt.Errorf("create -progress-events file: %w", err)
		}
		nd := rrtcp.NewNDJSONSink(f)
		closers = append(closers, func() error {
			err := nd.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("flush -progress-events: %w", err)
			}
			return nil
		})
		progressSinks = append(progressSinks, nd)
	}
	if *httpAddr != "" {
		liveMetrics := rrtcp.NewMetricsSink()
		liveProgress := rrtcp.NewProgressState()
		progressSinks = append(progressSinks, liveMetrics, liveProgress)
		tel.live = liveMetrics
		var liveFlows *rrtcp.FlowTable
		if *flowStats {
			// The live table behind /flows subscribes to the shared
			// telemetry bus, filling as experiments republish per-job
			// streams (chaos/stress keep run events private-bounded and
			// surface flow analytics via the result report instead); the
			// per-job tables behind the result's flow report are separate,
			// so scraping never perturbs the deterministic output.
			liveFlows = rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{
				Exemplars: *flowExemplars,
				Seed:      *seed,
				Registry:  liveMetrics.R,
			})
			tel.flows = liveFlows
		}
		srv := rrtcp.NewObsServer(liveMetrics.R, liveProgress, liveFlows)
		addr, err := srv.Start(*httpAddr)
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
		switch cmd {
		case "run":
			if fs.NArg() != 1 {
				return fmt.Errorf("usage: rrsim run [-json] [-trace out.csv] [-events out.ndjson] <scenario.json>")
			}
			return runScenario(emit, fs.Arg(0), *traceOut, tel)
		case "chaos":
			if *replay != "" {
				return runChaosReplay(*replay)
			}
		case "all":
			return runAll(emit, opts, runOpt, tel)
		}
		return runExperiment(cmd, emit, opts, runOpt, tel)
	}
	runErr := func() error {
		if *pprofDir != "" {
			return withProfiles(*pprofDir, do)
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
	if err := cpu.Close(); err != nil && runErr == nil {
		runErr = err
	}
	heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		if runErr == nil {
			runErr = err
		}
		return runErr
	}
	runtime.GC() // settle the heap so the snapshot reflects live data
	if err := pprof.WriteHeapProfile(heap); err != nil && runErr == nil {
		runErr = err
	}
	if err := heap.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
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

// runExperiment builds a registered experiment from the shared options,
// executes it on the sweep pool, and emits the result. Results that
// report invariant violations (chaos) turn into a non-zero exit.
func runExperiment(name string, emit renderer, opts rrtcp.ExperimentOptions,
	runOpt rrtcp.ExperimentRunOptions, tel telemetryOpts) error {
	for _, r := range rrtcp.Experiments() {
		if r.Name == name {
			if err := refuseIgnored(r, tel, opts); err != nil {
				return err
			}
		}
	}
	bus, finish, err := telemetrySetup(tel)
	if err != nil {
		return err
	}
	opts.Telemetry = bus
	var res rrtcp.ExperimentResult
	e, err := rrtcp.BuildExperiment(name, opts)
	if err == nil {
		res, err = rrtcp.RunExperiment(e, runOpt)
	}
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if err := emit(res.Render(), res); err != nil {
		return err
	}
	if tel.flowCSV != "" {
		fr, ok := res.(interface{ FlowReport() rrtcp.FlowReport })
		if !ok {
			return fmt.Errorf("%s does not produce a flow report (-flow-csv)", name)
		}
		f, err := os.Create(tel.flowCSV)
		if err != nil {
			return err
		}
		err = fr.FlowReport().WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
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
// figure. Telemetry and flow-analytics flags are refused before the
// first experiment starts, since most of the experiments ignore them.
func runAll(emit renderer, opts rrtcp.ExperimentOptions, runOpt rrtcp.ExperimentRunOptions, tel telemetryOpts) error {
	var all []rrtcp.ExperimentRegistration
	for _, r := range rrtcp.Experiments() {
		if r.Name == "chaos" {
			continue
		}
		if err := refuseIgnored(r, tel, opts); err != nil {
			return fmt.Errorf("all: %w", err)
		}
		all = append(all, r)
	}
	for _, r := range all {
		drops := []int{opts.Drops}
		if r.Name == "fig5" {
			drops = []int{3, 6}
		}
		for _, d := range drops {
			o := opts
			o.Drops = d
			if err := runExperiment(r.Name, emit, o, runOpt, telemetryOpts{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// refuseIgnored names the first telemetry or flow-analytics flag that
// experiment r would ignore: the registry says which options each
// experiment reads.
func refuseIgnored(r rrtcp.ExperimentRegistration, tel telemetryOpts, opts rrtcp.ExperimentOptions) error {
	for _, f := range []struct {
		flag, what string
		set, read  bool
	}{
		{"-events", "publishes no telemetry", tel.events != "", r.ReadsTelemetry},
		{"-flow-stats", "keeps no flow statistics", opts.FlowStats, r.ReadsFlowStats},
	} {
		if f.set && !f.read {
			return fmt.Errorf("%s %s (%s)", r.Name, f.what, f.flag)
		}
	}
	return nil
}

// renderer emits one experiment result.
type renderer func(rendered string, result any) error

func renderText(rendered string, _ any) error {
	_, err := fmt.Println(rendered)
	return err
}

func renderJSON(_ string, result any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(result)
}

// telemetryOpts gathers the observability flags shared by experiment
// and scenario runs.
type telemetryOpts struct {
	events  string              // NDJSON event stream path
	live    rrtcp.TelemetrySink // -http live metrics sink, also fed simulation events
	flows   *rrtcp.FlowTable    // -http live flow table behind /flows
	flowCSV string              // -flow-csv report path
}

// telemetrySetup builds the bus behind -events and -http. The returned
// finish func flushes the NDJSON stream; it must run even when the
// experiment fails.
func telemetrySetup(tel telemetryOpts) (*rrtcp.TelemetryBus, func() error, error) {
	var sinks []rrtcp.TelemetrySink
	if tel.live != nil {
		sinks = append(sinks, tel.live)
	}
	if tel.flows != nil {
		sinks = append(sinks, tel.flows)
	}
	finish := func() error { return nil }
	if tel.events != "" {
		f, err := os.Create(tel.events)
		if err != nil {
			return nil, nil, err
		}
		nd := rrtcp.NewNDJSONSink(f)
		sinks = append(sinks, nd)
		finish = func() error {
			err := nd.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	return rrtcp.NewTelemetryBus(sinks...), finish, nil
}

func runScenario(emit renderer, path, traceOut string, tel telemetryOpts) error {
	spec, err := rrtcp.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	bus, finish, err := telemetrySetup(tel)
	if err != nil {
		return err
	}
	// Sampled gauges become the counter tracks of rrtrace export's
	// Chrome trace; the sampler runs only when a bus is attached.
	spec.Telemetry, spec.SampleEvery = bus, 10*time.Millisecond
	// A nil trace writer runs the scenario without the flow-0 CSV.
	var trace io.Writer
	closeTrace := func() error { return nil }
	if traceOut != "" {
		f, err := os.Create(traceOut)
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
	return emit(rep.RenderText(), rep)
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
