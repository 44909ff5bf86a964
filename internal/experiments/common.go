// Package experiments contains one runner per table and figure of the
// paper's evaluation (Figure 5, Figure 6, Figure 7, Table 5), plus the
// ACK-loss robustness scenario of Section 2.3. Each runner describes
// its world as a scenario.Spec, has World.Rebuild assemble it in the
// world its sweep worker ran last, installs its flows and whatever else
// the run needs on that World, executes it deterministically, and
// returns structured results with a text rendering that mirrors what
// the paper reports.
//
// Every runner is an Experiment — Name, Jobs, Reduce — executed on the
// internal/sweep worker pool, so its independent runs fan out across
// CPUs while the merged result stays byte-identical to sequential
// execution (see docs/SWEEP.md). Each is one grid literal (grid.go:
// cells, each run under its seeds, folded cell by cell), and every one
// checkpoints: a journal is keyed by the experiment's configuration and
// job list, and a resumed run is byte-identical to an uninterrupted
// one. The registry in registry.go lists the experiments in canonical
// order and which of the shared options each reads. There is one way to
// run an experiment: build it (NewFigure5Experiment, or Build by name)
// and hand it to Run; the worker count is a RunOptions field, never
// part of the experiment's config.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rrtcp/internal/faults"
	"rrtcp/internal/invariant"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// supervise arms what the robustness experiments (chaos, stress) add to
// a built world once its flows are installed: the invariant checker,
// subscribed to bus after the caller's own sinks and watching every
// sender, its liveness watchdog, and the fault plan. The world must be
// built with bus as its Spec.Telemetry and its flows must publish to it.
func supervise(w *scenario.World, bus *telemetry.Bus, plan *faults.PlanSpec, rng *rand.Rand) (*invariant.Checker, error) {
	checker := invariant.NewChecker(w.Sched, bus)
	bus.Subscribe(checker)
	for _, f := range w.Flows {
		checker.WatchSender(f.Sender)
	}
	if err := checker.StartWatchdog(0, 0, 0); err != nil {
		return nil, err
	}
	if err := plan.Apply(w.Sched, w.Net, rng, bus); err != nil {
		return nil, err
	}
	return checker, nil
}

// ackLossRate is the fraction of the ACKs the flow's receiver generated
// before its transfer completed that the sender never processed.
// Without delayed ACKs the receiver emits exactly one ACK per data
// segment it processes, so the receiver's segment count stands for the
// ACKs generated.
//
// Precondition: the run ended at completion (the flow's OnDone stops
// the scheduler) or the flow never completed. A sender drops every ACK
// once it is done, yet its receiver keeps counting, so a segment that
// arrives after completion — a go-back-N resend or a spurious
// retransmission still in flight — would count its ACK as lost even
// when that ACK arrives.
func ackLossRate(flow *workload.Flow) float64 {
	acksSent := float64(flow.Receiver.Segments)
	acksGot := float64(flow.Sender.Acks())
	if acksGot >= acksSent {
		return 0
	}
	return 1 - acksGot/acksSent
}

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// delayCell formats a transfer delay for a table: "DNF" when the
// transfer did not finish.
func delayCell(delay sim.Time, finished bool) string {
	if !finished {
		return "DNF"
	}
	return fmt.Sprintf("%.3fs", delay.Seconds())
}

// find returns the first element of xs that matches.
func find[T any](xs []T, match func(T) bool) (T, bool) {
	for _, x := range xs {
		if match(x) {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// kbps formats a bit-per-second value in Kbps.
func kbps(bps float64) string { return fmt.Sprintf("%.1f Kbps", bps/1000) }
