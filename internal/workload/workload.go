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
	// RROptions, for Kind == RR, applies ablation knobs.
	RROptions *core.Options
	// Strategy, when non-nil, overrides Kind entirely — the escape hatch
	// for custom or deliberately broken strategies (chaos testing).
	Strategy tcp.Strategy
	// Telemetry, when non-nil, receives the flow's structured events
	// (sender, receiver, and recovery state machine).
	Telemetry *telemetry.Bus
	// NoTrace installs the flow with a nil FlowTrace. A default trace
	// records nothing until Flow.Trace.Record() is called before the
	// run, so this only skips its 32-byte holder: for worlds that build
	// flows by the thousand (chaos, stress, many-flow workloads). The
	// flow is counted by its Sender either way.
	NoTrace bool
	// OnDone runs when the transfer completes.
	OnDone func()
}

// Flow is an installed connection.
type Flow struct {
	Spec     FlowSpec
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
	Trace    *trace.FlowTrace
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
	if err := install(f, sched, d, idx, spec, reverse); err != nil {
		return nil, err
	}
	return f, nil
}

// install wires the flow spec describes into f.
func install(f *Flow, sched *sim.Scheduler, d *netem.Dumbbell, idx int, spec FlowSpec, reverse bool) error {
	if spec.Bytes == 0 {
		spec.Bytes = tcp.Infinite
	}
	strat, err := spec.NewStrategy()
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
	var tr *trace.FlowTrace // nil is a valid no-op trace
	if !spec.NoTrace {
		tr = trace.New(idx, traceName)
	}
	recv := tcp.NewReceiver(sched, idx, ackIn, tr)
	recv.SACKEnabled = spec.Kind.NeedsSACKReceiver()
	recv.DelayedAck = spec.DelayedAck
	recv.Telemetry = spec.Telemetry
	recv.Pool = d.Pool()
	snd, err := tcp.New(sched, dataIn, strat, tcp.Config{
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
	})
	if err != nil {
		return fmt.Errorf("%s %d: %w", what, idx, err)
	}
	connectData(idx, recv)
	connectAcks(idx, snd)
	if err := snd.Start(spec.StartAt); err != nil {
		return fmt.Errorf("%s %d: %w", what, idx, err)
	}
	*f = Flow{Spec: spec, Sender: snd, Receiver: recv, Trace: tr}
	return nil
}

// InstallAll installs one flow per spec, in slot order. The flows are
// laid out in one block; the pointers it returns point into it.
func InstallAll(sched *sim.Scheduler, d *netem.Dumbbell, specs []FlowSpec) ([]*Flow, error) {
	block := make([]Flow, len(specs))
	flows := make([]*Flow, len(specs))
	for i, spec := range specs {
		if err := install(&block[i], sched, d, i, spec, false); err != nil {
			return nil, err
		}
		flows[i] = &block[i]
	}
	return flows, nil
}
