// Command rrtrace inspects NDJSON event logs produced by
// rrsim -events (or any telemetry.NDJSONSink). rrsim writes only the
// log; every report built from it — the Chrome trace and the metrics
// snapshot included — is rendered here, offline.
//
// Usage:
//
//	rrtrace summary <events.ndjson>
//	    Per-flow counters, recovery episodes (retreat/probe durations,
//	    further losses, exit window), and per-queue drop counts.
//
//	rrtrace flows [-exemplars k] [-seed n] <events.ndjson>
//	    Replay the stream through the flow-analytics table and print the
//	    aggregate flow report: per-variant FCT quantiles, goodput,
//	    retransmission load, and windowed Jain fairness — the same table
//	    a live run serves at /flows.
//
//	rrtrace filter [-flow n] [-comp c] [-kind k] [-from s] [-to s] <events.ndjson>
//	    Re-emit matching events as NDJSON, e.g. for piping into jq.
//
//	rrtrace timeline [-flow n] [-width n] [-height n] <events.ndjson>
//	    ASCII plot of one flow's cwnd/actnum with a recovery-phase strip,
//	    one panel per run of a multi-run log.
//
//	rrtrace spans <events.ndjson>
//	    Assemble and print the span tree: connection lifetimes, recovery
//	    episodes with retreat/probe sub-phases, queue busy periods.
//
//	rrtrace metrics <events.ndjson>
//	    Replay the stream into the metrics registry and print its
//	    snapshot: every counter, gauge and histogram as sorted
//	    "name value" lines — the registry a live run serves at /metrics.
//
//	rrtrace export [-format chrome|csv] [-out file] <events.ndjson>
//	    Export spans + sampled series as Chrome trace-event JSON
//	    (openable in Perfetto) or the sampled series as CSV.
//
// A path of "-" reads from stdin. If any input lines were malformed the
// command still runs, but reports the skip count and exits non-zero. A
// failed write to the output (a full disk, a closed pipe) is an error.
// Lines whose component or kind this build does not know are left out
// with a warning, and do not change the exit status.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rrtrace {summary|flows|filter|timeline|spans|metrics|export} [flags] <events.ndjson>")
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	flow := fs.Int("flow", -1, "restrict to one flow id (filter/timeline; timeline default 0)")
	comp := fs.String("comp", "", "restrict to a component, e.g. rr, sender, queue (filter)")
	kind := fs.String("kind", "", "restrict to an event kind, e.g. drop, recovery-enter (filter)")
	from := fs.Float64("from", 0, "discard records before this time in seconds (filter)")
	to := fs.Float64("to", 0, "discard records after this time in seconds; 0 = unbounded (filter)")
	width := fs.Int("width", 72, "plot width in columns (timeline)")
	height := fs.Int("height", 16, "plot height in rows (timeline)")
	format := fs.String("format", "chrome", "export format: chrome (trace-event JSON) or csv (sampled series)")
	out := fs.String("out", "-", "export output path; - writes to stdout (export)")
	exemplars := fs.Int("exemplars", 0, "reservoir of exemplar flows to track while replaying (flows)")
	seed := fs.Int64("seed", 0, "reservoir-sampling seed (flows)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rrtrace %s [flags] <events.ndjson>", cmd)
	}
	events, stats, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	// Event streams from crashed or truncated runs routinely end in a
	// torn line; the decoder skips what doesn't parse. Partial input is
	// partially answered: the command's output stands, but the exit code
	// must not pretend the log was whole. Lines of a vocabulary this
	// build does not know are no damage: warned about, exit status
	// untouched.
	var damaged error
	if stats.Skipped > 0 {
		damaged = fmt.Errorf("skipped %d malformed line(s) of %d (first: %v)",
			stats.Skipped, stats.Lines, stats.FirstErr)
		fmt.Fprintln(os.Stderr, "rrtrace:", damaged)
	}
	if stats.Unknown > 0 {
		fmt.Fprintf(os.Stderr, "rrtrace: ignored %d line(s) of an unknown component or kind (first: %v)\n",
			stats.Unknown, stats.FirstUnknown)
	}

	switch cmd {
	case "summary":
		_, err = fmt.Print(telemetry.Summarize(events).Render())
	case "flows":
		table := flowstats.New(flowstats.Config{
			Exemplars: *exemplars,
			Seed:      *seed,
		})
		telemetry.Replay(events, table)
		table.Finalize()
		_, err = fmt.Print(table.Report().Render())
	case "filter":
		opts := telemetry.FilterOpts{
			Flow:    int32(*flow),
			FlowSet: *flow >= 0,
			Comp:    *comp,
			Kind:    *kind,
			From:    *from,
			To:      *to,
		}
		enc := telemetry.NewNDJSONSink(os.Stdout)
		telemetry.Replay(telemetry.Filter(events, opts), enc)
		err = enc.Close()
	case "timeline":
		_, err = fmt.Print(telemetry.Timeline(events, int32(max(*flow, 0)), *width, *height))
	case "spans":
		spans := telemetry.NewSpanSink()
		telemetry.Replay(events, spans)
		_, err = fmt.Print(telemetry.RenderSpans(spans.Spans()))
	case "metrics":
		ms := telemetry.NewMetricsSink()
		telemetry.Replay(events, ms)
		_, err = fmt.Print(ms.R.Snapshot())
	case "export":
		err = export(events, *format, *out)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		return err
	}
	return damaged
}

func export(events []telemetry.Event, format, out string) (err error) {
	var w io.Writer = os.Stdout
	if out != "-" {
		f, cerr := os.Create(out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	spans, series := telemetry.NewSpanSink(), telemetry.NewSeriesSink()
	telemetry.Replay(events, spans, series)
	switch format {
	case "chrome":
		return telemetry.WriteChromeTrace(w, spans.Spans(), series.Series())
	case "csv":
		return telemetry.WriteSeriesCSV(w, series.Series())
	default:
		return fmt.Errorf("unknown export format %q (want chrome or csv)", format)
	}
}

func load(path string) ([]telemetry.Event, telemetry.DecodeStats, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, telemetry.DecodeStats{}, err
		}
		defer f.Close()
		r = f
	}
	return telemetry.DecodeNDJSON(r)
}
