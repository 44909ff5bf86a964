// Package rrtcp is the public API of this reproduction of "Robust TCP
// Congestion Recovery" (Wang & Shin, ICDCS 2001). It exposes the
// discrete-event simulator, the network elements, the TCP senders
// (Tahoe, Reno, New-Reno, SACK, and the paper's Robust Recovery), and
// the experiment runners that regenerate every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	sched := rrtcp.NewScheduler(1)
//	net, _ := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
//	flow, _ := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
//		Kind:  rrtcp.RR,
//		Bytes: 100 * 1000,
//	})
//	sched.Run(30 * time.Second)
//	delay, _ := flow.Sender.TransferDelay()
//
// A flow is counted by its Sender (transfer delay, retransmits,
// timeouts, ACKs, bytes acknowledged as SndUna, loss rate). Its Trace
// logs no samples unless asked: the readers of the sample series —
// SeqSeries for a sequence plot, GoodputBps over a window, WriteCSV —
// need the log, which is kept only from a call made before the run:
//
//	flow.Trace.Record()
//	sched.Run(30 * time.Second)
//	bps := flow.Trace.GoodputBps(10*time.Second, 30*time.Second)
//
// See the examples/ directory for complete programs.
package rrtcp

import (
	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// Must unwraps any constructor result, panicking on error — for call
// sites with constant, known-valid parameters:
//
//	cfg.ForwardQueue = rrtcp.Must(rrtcp.NewDropTailQueue(sched, 25))
func Must[T any](v T, err error) T { return netem.Must(v, err) }

// --- TCP ---

type (
	// Sender is one connection's sending side.
	Sender = tcp.Sender
	// Strategy is the pluggable congestion-control state machine.
	Strategy = tcp.Strategy
	// AckEvent is what a Strategy's OnAck is handed for each ACK.
	AckEvent = tcp.AckEvent
	// RROptions exposes RR's ablation knobs.
	RROptions = core.Options
)

// Infinite marks an unbounded transfer.
const Infinite = tcp.Infinite

// DefaultMSS is the paper's 1000-byte segment size.
const DefaultMSS = tcp.DefaultMSS

// --- flows and workloads ---

type (
	// Kind selects a TCP loss-recovery variant.
	Kind = workload.Kind
	// FlowSpec describes one connection to install.
	FlowSpec = workload.FlowSpec
	// Flow is an installed connection.
	Flow = workload.Flow
)

// The TCP variants under evaluation: the paper's lineup plus the
// related-work schemes its introduction analyzes (right-edge recovery,
// Lin-Kung). Kinds also lists a modern RFC 6675-style SACK, which
// ParseKind("sack6675") names.
const (
	Tahoe     = workload.Tahoe
	Reno      = workload.Reno
	NewReno   = workload.NewReno
	SACK      = workload.SACK
	RR        = workload.RR
	RightEdge = workload.RightEdge
	LinKung   = workload.LinKung
	FACK      = workload.FACK
)

// Kinds lists every variant in evaluation order.
func Kinds() []Kind { return workload.Kinds() }

// ParseKind converts a variant name ("tahoe", "newreno", "rr", ...).
func ParseKind(s string) (Kind, error) { return workload.ParseKind(s) }

// InstallFlow wires a flow into slot idx of the dumbbell.
func InstallFlow(s *Scheduler, d *Dumbbell, idx int, spec FlowSpec) (*Flow, error) {
	return workload.Install(s, d, idx, spec)
}

// InstallFlows installs one flow per spec.
func InstallFlows(s *Scheduler, d *Dumbbell, specs []FlowSpec) ([]*Flow, error) {
	return workload.InstallAll(s, d, specs)
}
