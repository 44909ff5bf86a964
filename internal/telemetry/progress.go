package telemetry

import (
	"fmt"
	"io"
)

// ProgressSink renders sweep-engine progress events as a single
// carriage-return-updated status line, for interactive stderr feedback
// while a long sweep runs. Each line is drawn from one event alone;
// events from other components are ignored.
type ProgressSink struct {
	w io.Writer
}

// NewProgressSink returns a sink writing sweep progress to w.
func NewProgressSink(w io.Writer) *ProgressSink { return &ProgressSink{w: w} }

// Emit implements Sink.
func (p *ProgressSink) Emit(ev Event) {
	if ev.Comp != CompSweep {
		return
	}
	switch ev.Kind {
	case KSweepStart:
		fmt.Fprintf(p.w, "%s: %d jobs on %d workers\n", label(ev.Src), int(ev.A), int(ev.B))
	case KSweepJob:
		fmt.Fprintf(p.w, "\r%d/%d %-40s", int(ev.A), int(ev.B), ev.Src)
	case KSweepStall:
		fmt.Fprintf(p.w, "\rstall: job %d (%s) running %.1fs on worker %d%-10s\n",
			ev.Seq, ev.Src, ev.A, int(ev.B), "")
	case KSweepDegraded:
		fmt.Fprintf(p.w, "\rdegraded: job %d (%s) hit its resource budget%-10s\n",
			ev.Seq, ev.Src, "")
	case KSweepDone:
		fmt.Fprintf(p.w, "\r%s: %d jobs done%-30s\n", label(ev.Src), int(ev.A), "")
	}
}

func label(src string) string {
	if src == "" {
		return "sweep"
	}
	return src
}
