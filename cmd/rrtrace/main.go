// Command rrtrace inspects NDJSON event logs produced by
// rrsim -events (or any telemetry.NDJSONSink). rrsim writes only the
// log; every report built from it — the Chrome trace and the metrics
// snapshot included — is rendered here, offline. Each report is a set
// of telemetry sinks, the same ones a live run subscribes, fed by
// telemetry.DecodeNDJSON in one pass over the log; no subcommand holds
// the log itself. A subcommand accepts only the flags shown for it.
//
// Usage:
//
//	rrtrace summary <events.ndjson>
//	    Per-flow counters, recovery episodes (retreat/probe durations,
//	    further losses, exit window), and per-queue drop counts.
//
//	rrtrace flows [-exemplars k] [-seed n] <events.ndjson>
//	    Feed the stream to the flow-analytics table and print the
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
//	    Feed the stream to the metrics registry and print its
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
	"errors"
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

// report is a subcommand once its flags are parsed: the sinks the log is
// decoded into, and what prints the result from them afterwards.
type report struct {
	sinks []telemetry.Sink
	print func() error
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rrtrace {summary|flows|filter|timeline|spans|metrics|export} [flags] <events.ndjson>")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	// Each case declares the flags its subcommand reads and no other, so
	// fs.Parse refuses the rest before anything is read or written.
	var build func() report
	switch cmd {
	case "summary":
		build = func() report {
			sum := telemetry.NewSummarySink()
			return report{[]telemetry.Sink{sum}, func() error { return write(sum.Summary().Render()) }}
		}
	case "flows":
		exemplars := fs.Int("exemplars", 0, "reservoir of exemplar flows to track while reading")
		seed := fs.Int64("seed", 0, "reservoir-sampling seed")
		build = func() report {
			table := flowstats.New(flowstats.Config{Exemplars: *exemplars, Seed: *seed})
			return report{[]telemetry.Sink{table}, func() error {
				table.Finalize()
				return write(table.Report().Render())
			}}
		}
	case "filter":
		flow := fs.Int("flow", -1, "restrict to one flow id; -1 = every flow")
		comp := fs.String("comp", "", "restrict to a component, e.g. rr, sender, queue")
		kind := fs.String("kind", "", "restrict to an event kind, e.g. drop, recovery-enter")
		from := fs.Float64("from", 0, "discard records before this time in seconds")
		to := fs.Float64("to", 0, "discard records after this time in seconds; 0 = unbounded")
		build = func() report {
			enc := telemetry.NewNDJSONSink(os.Stdout)
			opts := telemetry.FilterOpts{Flow: int32(*flow), FlowSet: *flow >= 0, Comp: *comp, Kind: *kind, From: *from, To: *to}
			return report{[]telemetry.Sink{telemetry.NewFilterSink(opts, enc)}, enc.Close}
		}
	case "timeline":
		flow := fs.Int("flow", 0, "flow id to plot")
		width := fs.Int("width", 72, "plot width in columns")
		height := fs.Int("height", 16, "plot height in rows")
		build = func() report {
			tl := telemetry.NewTimelineSink(int32(max(*flow, 0)), *width, *height)
			return report{[]telemetry.Sink{tl}, func() error { return write(tl.Render()) }}
		}
	case "spans":
		build = func() report {
			spans := telemetry.NewSpanSink()
			return report{[]telemetry.Sink{spans}, func() error { return write(telemetry.RenderSpans(spans.Spans())) }}
		}
	case "metrics":
		build = func() report {
			ms := telemetry.NewMetricsSink()
			return report{[]telemetry.Sink{ms}, func() error { return write(ms.R.Snapshot()) }}
		}
	case "export":
		format := fs.String("format", "chrome", "export format: chrome (trace-event JSON) or csv (sampled series)")
		out := fs.String("out", "-", "output path; - writes to stdout")
		build = func() report {
			var spans *telemetry.SpanSink // nil, a no-op, for a format without spans
			if *format != "csv" {
				spans = telemetry.NewSpanSink()
			}
			series := telemetry.NewSeriesSink()
			return report{[]telemetry.Sink{spans, series}, func() error { return export(*format, *out, spans, series) }}
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rrtrace %s [flags] <events.ndjson>", cmd)
	}
	rep := build()
	stats, err := decode(fs.Arg(0), rep.sinks)
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
	if err := rep.print(); err != nil {
		return err
	}
	return damaged
}

// decode reads the log at path ("-": stdin) into the sinks in one pass.
func decode(path string, sinks []telemetry.Sink) (telemetry.DecodeStats, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return telemetry.DecodeStats{}, err
		}
		defer f.Close()
		r = f
	}
	return telemetry.DecodeNDJSON(r, sinks...)
}

func write(s string) error {
	_, err := fmt.Print(s)
	return err
}

func export(format, out string, spans *telemetry.SpanSink, series *telemetry.SeriesSink) (err error) {
	if format != "chrome" && format != "csv" {
		return fmt.Errorf("unknown export format %q (want chrome or csv)", format)
	}
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
	if format == "csv" {
		return telemetry.WriteSeriesCSV(w, series.Series())
	}
	return telemetry.WriteChromeTrace(w, spans.Spans(), series.Series())
}
