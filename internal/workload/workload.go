// Package workload assembles complete TCP flows — sender, receiver,
// trace, and FTP-style application data — onto a netem topology, and
// names the recovery variants the paper evaluates. It corresponds to
// the ns-2 scenario scripts in the original study.
package workload

import (
	"encoding/json"
	"fmt"
	"strings"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
)

// Kind selects a TCP loss-recovery variant.
type Kind int

// The variants the paper evaluates.
const (
	Tahoe Kind = iota + 1
	Reno
	NewReno
	SACK
	SACKModern
	RR
	RightEdge
	LinKung
	FACK
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Tahoe:
		return "tahoe"
	case Reno:
		return "reno"
	case NewReno:
		return "newreno"
	case SACK:
		return "sack"
	case SACKModern:
		return "sack6675"
	case RR:
		return "rr"
	case RightEdge:
		return "rightedge"
	case LinKung:
		return "linkung"
	case FACK:
		return "fack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalJSON implements json.Marshaler, encoding the variant name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	parsed, err := ParseKind(name)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind converts a variant name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tahoe":
		return Tahoe, nil
	case "reno":
		return Reno, nil
	case "newreno", "new-reno":
		return NewReno, nil
	case "sack":
		return SACK, nil
	case "sack6675", "sackmodern", "sack-modern":
		return SACKModern, nil
	case "rr", "robust", "robust-recovery":
		return RR, nil
	case "rightedge", "right-edge":
		return RightEdge, nil
	case "linkung", "lin-kung":
		return LinKung, nil
	case "fack":
		return FACK, nil
	default:
		return 0, fmt.Errorf("workload: unknown TCP variant %q", s)
	}
}

// Kinds lists all variants in evaluation order.
func Kinds() []Kind {
	return []Kind{Tahoe, Reno, NewReno, SACK, SACKModern, RR, RightEdge, LinKung, FACK}
}

// NeedsSACKReceiver reports whether the variant requires receiver-side
// selective acknowledgments — the deployment cost the paper holds
// against SACK TCP.
func (k Kind) NeedsSACKReceiver() bool { return k == SACK || k == SACKModern || k == FACK }

// FlowSpec describes one connection to install on a topology.
type FlowSpec struct {
	// Kind selects the recovery variant.
	Kind Kind
	// StartAt is when the flow begins transmitting.
	StartAt sim.Time
	// Bytes bounds the transfer (tcp.Infinite for an unbounded FTP).
	Bytes int64
	// Window is the advertised receiver window in packets (default 128).
	Window int
	// InitialSSThresh overrides the initial slow-start threshold.
	InitialSSThresh float64
	// MSS overrides the segment size (default 1000 bytes).
	MSS int
	// DelayedAck enables RFC 1122 delayed acknowledgments at the
	// receiver (the paper runs with them off).
	DelayedAck bool
	// SmoothStart enables the paper's [21] slow-start refinement.
	SmoothStart bool
	// NoTrace installs the flow with a nil FlowTrace. A default trace
	// records nothing until Flow.Trace.Record() is called before the
	// run, and its holder is part of the Flow either way, so this only
	// makes sure nothing records: for worlds that build flows by the
	// thousand (chaos, stress, many-flow workloads). The flow is counted
	// by its Sender either way.
	NoTrace bool
	// RROptions, for Kind == RR, applies ablation knobs.
	RROptions *core.Options
	// Strategy, when non-nil, overrides Kind entirely — the escape hatch
	// for custom or deliberately broken strategies (chaos testing).
	Strategy tcp.Strategy
	// Telemetry, when non-nil, receives the flow's structured events
	// (sender, receiver, and recovery state machine).
	Telemetry *telemetry.Bus
	// OnDone runs when the transfer completes.
	OnDone func()
}

// Flow is an installed connection. The endpoints Install builds live in
// the Flow itself, and Sender, Receiver and Trace point at them; a Flow
// built by hand may point anywhere. A Flow is not copied once
// installed: its endpoints are wired to their own addresses.
type Flow struct {
	Spec     FlowSpec
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
	Trace    *trace.FlowTrace // nil with NoTrace

	snd  tcp.Sender
	recv tcp.Receiver
	tr   trace.FlowTrace
}

// NewStrategy instantiates the strategy for a spec.
func (s FlowSpec) NewStrategy() (tcp.Strategy, error) {
	if s.Strategy != nil {
		return s.Strategy, nil
	}
	switch s.Kind {
	case Tahoe:
		return tcp.NewTahoe(), nil
	case Reno:
		return tcp.NewReno4BSD(), nil
	case NewReno:
		return tcp.NewNewReno(), nil
	case SACK:
		return tcp.NewSACK(), nil
	case SACKModern:
		return tcp.NewSACKModern(), nil
	case RR:
		if s.RROptions != nil {
			return core.NewRRWithOptions(*s.RROptions), nil
		}
		return core.NewRR(), nil
	case RightEdge:
		return tcp.NewRightEdge(), nil
	case LinKung:
		return tcp.NewLinKung(), nil
	case FACK:
		return tcp.NewFACK(), nil
	default:
		return nil, fmt.Errorf("workload: unknown TCP variant %v", s.Kind)
	}
}

// Install wires a flow into slot idx of the dumbbell and schedules its
// start.
func Install(sched *sim.Scheduler, d *netem.Dumbbell, idx int, spec FlowSpec) (*Flow, error) {
	return installNew(sched, d, idx, spec, false)
}

// InstallReverse wires a flow in the opposite direction: the sender
// sits at host K_idx and its data crosses the R2→R1 bottleneck, with
// ACKs returning over R1→R2. Two-way traffic like this is what makes
// drop-tail gateways interleave data and ACKs (the ACK-compression
// effects of Zhang, Shenker & Clark, SIGCOMM'91 — the paper's [22]).
func InstallReverse(sched *sim.Scheduler, d *netem.Dumbbell, idx int, spec FlowSpec) (*Flow, error) {
	return installNew(sched, d, idx, spec, true)
}

func installNew(sched *sim.Scheduler, d *netem.Dumbbell, idx int, spec FlowSpec, reverse bool) (*Flow, error) {
	f := new(Flow)
	if err := f.Reset(sched, d, idx, spec, reverse); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset installs the flow spec describes into f, in slot idx of the
// dumbbell — reversed as InstallReverse does if reverse is set — and
// schedules its start. f is then what Install (or InstallReverse) would
// have returned, built in f's own memory: of the connection f held
// before, only storage its endpoints own survives (see tcp.Sender.Reset,
// tcp.Receiver.Reset and trace.FlowTrace.Reset), so the scheduler and
// dumbbell that connection ran on must have been Reset or rebuilt, or
// be new. After an error f must be Reset again before it is used.
func (f *Flow) Reset(sched *sim.Scheduler, d *netem.Dumbbell, idx int, spec FlowSpec, reverse bool) (err error) {
	defer func() {
		if err != nil {
			f.Spec = FlowSpec{} // a half-made flow's strategy is not reused
		}
	}()
	if spec.Bytes == 0 {
		spec.Bytes = tcp.Infinite
	}
	strat, err := f.strategy(spec)
	if err != nil {
		return err
	}
	// A forward flow's data enters at the S side and its ACKs at the K
	// side; a reverse flow swaps the two hosts.
	dataIn, ackIn := d.SenderPort(idx), d.ReceiverPort(idx)
	connectData, connectAcks := d.ConnectReceiver, d.ConnectSender
	what, traceName := "flow", spec.Kind.String()
	if reverse {
		dataIn, ackIn = ackIn, dataIn
		connectData, connectAcks = connectAcks, connectData
		what, traceName = "reverse flow", traceName+"-rev"
	}
	f.tr.Reset(idx, traceName)
	tr := &f.tr
	if spec.NoTrace {
		tr = nil // a valid no-op trace
	}
	recv := &f.recv
	recv.Reset(sched, idx, ackIn, tr)
	recv.SACKEnabled = spec.Kind.NeedsSACKReceiver()
	recv.DelayedAck = spec.DelayedAck
	recv.Telemetry = spec.Telemetry
	recv.Pool = d.Pool()
	snd := &f.snd
	if err := snd.Reset(sched, dataIn, strat, tcp.Config{
		Flow:            idx,
		MSS:             spec.MSS,
		Window:          spec.Window,
		InitialSSThresh: spec.InitialSSThresh,
		TotalBytes:      spec.Bytes,
		SmoothStart:     spec.SmoothStart,
		Trace:           tr,
		Telemetry:       spec.Telemetry,
		OnDone:          spec.OnDone,
		Pool:            d.Pool(),
	}); err != nil {
		return fmt.Errorf("%s %d: %w", what, idx, err)
	}
	connectData(idx, recv)
	connectAcks(idx, snd)
	if err := snd.Start(spec.StartAt); err != nil {
		return fmt.Errorf("%s %d: %w", what, idx, err)
	}
	f.Spec, f.Sender, f.Receiver, f.Trace = spec, snd, recv, tr
	return nil
}

// strategy returns the strategy spec.NewStrategy would: the one f ran
// before, Reset, when spec builds the same one, else a new one.
func (f *Flow) strategy(spec FlowSpec) (tcp.Strategy, error) {
	if old, ok := f.snd.Strategy().(interface{ Reset() }); ok && sameStrategy(f.Spec, spec) {
		old.Reset()
		return f.snd.Strategy(), nil
	}
	return spec.NewStrategy()
}

// sameStrategy reports whether a and b build the same strategy: the same
// variant with the same options, and no strategy of their own.
func sameStrategy(a, b FlowSpec) bool {
	if a.Strategy != nil || b.Strategy != nil || a.Kind != b.Kind {
		return false
	}
	if a.RROptions == nil || b.RROptions == nil {
		return a.RROptions == b.RROptions
	}
	return *a.RROptions == *b.RROptions
}

// InstallAll installs one flow per spec, in slot order. The flows,
// endpoints included, are laid out in one block; the pointers it
// returns point into it.
func InstallAll(sched *sim.Scheduler, d *netem.Dumbbell, specs []FlowSpec) ([]*Flow, error) {
	block := make([]Flow, len(specs))
	flows := make([]*Flow, len(specs))
	for i, spec := range specs {
		if err := block[i].Reset(sched, d, i, spec, false); err != nil {
			return nil, err
		}
		flows[i] = &block[i]
	}
	return flows, nil
}
