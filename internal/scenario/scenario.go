// Package scenario loads and runs user-described simulations from JSON
// files: topology, queue disciplines, loss injection, and a list of
// flows. It is the glue that lets rrsim run arbitrary experiments
// beyond the paper's fixed tables and figures.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// Duration wraps time.Duration with JSON encoding as a string ("50ms").
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler; accepts "50ms" strings or
// raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"50ms\" or nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// QueueSpec selects a queue discipline.
type QueueSpec struct {
	// Type is "droptail" (default), "red", or "drr".
	Type string `json:"type"`
	// Limit is the buffer size in packets.
	Limit int `json:"limit"`
	// Quantum is the DRR byte quantum (drr only; default 1000).
	Quantum int `json:"quantum,omitempty"`
	// RED overrides the Table 4 parameters (red only).
	RED *netem.REDConfig `json:"red,omitempty"`
}

func (q *QueueSpec) build(sched *sim.Scheduler) (netem.QueueDiscipline, error) {
	limit := q.Limit
	if limit < 0 {
		return nil, fmt.Errorf("scenario: negative queue limit %d", limit)
	}
	if limit == 0 {
		limit = 8 // unset: the Table 3 default
	}
	switch q.Type {
	case "", "droptail", "fifo":
		return netem.NewDropTail(limit)
	case "red":
		cfg := netem.PaperREDConfig()
		if q.RED != nil {
			cfg = *q.RED
		}
		cfg.Limit = limit
		return netem.NewRED(cfg, sched.Rand())
	case "drr":
		quantum := q.Quantum
		if quantum < 0 {
			return nil, fmt.Errorf("scenario: negative DRR quantum %d", quantum)
		}
		if quantum == 0 {
			quantum = 1000
		}
		return netem.NewDRR(quantum, limit)
	default:
		return nil, fmt.Errorf("scenario: unknown queue type %q", q.Type)
	}
}

// TopologySpec describes the dumbbell.
type TopologySpec struct {
	Flows           int        `json:"flows"`
	BottleneckBps   float64    `json:"bottleneckBps"`
	BottleneckDelay Duration   `json:"bottleneckDelay"`
	SideBps         float64    `json:"sideBps"`
	SideDelay       Duration   `json:"sideDelay"`
	ForwardQueue    *QueueSpec `json:"forwardQueue,omitempty"`
	ReverseQueue    *QueueSpec `json:"reverseQueue,omitempty"`
}

// LossSpec describes loss injection at the forward bottleneck.
type LossSpec struct {
	// Rate enables uniform random loss.
	Rate float64 `json:"rate,omitempty"`
	// DropAcks extends random loss to ACKs.
	DropAcks bool `json:"dropAcks,omitempty"`
	// BurstLength, when > 1 together with Rate, switches to a
	// Gilbert-Elliott channel with the given mean loss-burst length at
	// the same stationary rate.
	BurstLength float64 `json:"burstLength,omitempty"`
	// Drops lists deterministic per-flow packet-number drops.
	Drops []FlowDrops `json:"drops,omitempty"`
}

// gilbert reports whether the spec selects the Gilbert-Elliott channel.
func (l *LossSpec) gilbert() bool { return l.Rate > 0 && l.BurstLength > 1 }

// FlowDrops pins deterministic losses for one flow.
type FlowDrops struct {
	Flow    int     `json:"flow"`
	Packets []int64 `json:"packets"`
	// Retransmits lists packet numbers whose first retransmission is
	// also dropped.
	Retransmits []int64 `json:"retransmits,omitempty"`
}

// FlowSpec describes one connection.
type FlowSpec struct {
	// Kind is the variant name ("rr", "newreno", ...).
	Kind string `json:"kind"`
	// Bytes bounds the transfer; 0 or -1 means unbounded.
	Bytes int64 `json:"bytes,omitempty"`
	// Packets is an alternative to Bytes, in 1000-byte packets.
	Packets int64 `json:"packets,omitempty"`
	// StartAt delays the flow's first transmission.
	StartAt Duration `json:"startAt,omitempty"`
	// Window is the advertised window in packets.
	Window int `json:"window,omitempty"`
	// SSThresh overrides the initial slow-start threshold.
	SSThresh float64 `json:"ssthresh,omitempty"`
	// DelayedAck enables RFC 1122 delayed ACKs at the receiver.
	DelayedAck bool `json:"delayedAck,omitempty"`
	// SmoothStart enables the [21] slow-start refinement.
	SmoothStart bool `json:"smoothStart,omitempty"`
	// Reverse sends the flow's data across the bottleneck backwards.
	Reverse bool `json:"reverse,omitempty"`
}

// Spec is a complete scenario file.
type Spec struct {
	// Name labels the run.
	Name string `json:"name,omitempty"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration bounds the simulation.
	Duration Duration `json:"duration"`
	// Topology describes the dumbbell (defaults to paper Table 3).
	Topology *TopologySpec `json:"topology,omitempty"`
	// Loss configures loss injection.
	Loss *LossSpec `json:"loss,omitempty"`
	// Flows lists the connections.
	Flows []FlowSpec `json:"flows"`
	// Telemetry, when non-nil, receives structured events from every
	// flow plus the instrumented bottleneck links, queues, and loss
	// injector. Set programmatically (e.g. by rrsim -events); not part
	// of the JSON schema.
	Telemetry *telemetry.Bus `json:"-"`
	// SampleEvery enables the periodic gauge Sampler (per-flow window
	// and RTT state plus bottleneck occupancy) at the given sim-time
	// interval when Telemetry is enabled; 0 keeps sampling off. Set
	// programmatically (e.g. by rrsim -trace-out).
	SampleEvery sim.Time `json:"-"`
}

// FlowReport is one flow's outcome.
type FlowReport struct {
	Flow        int      `json:"flow"`
	Kind        string   `json:"kind"`
	Reverse     bool     `json:"reverse,omitempty"`
	GoodputBps  float64  `json:"goodputBps"`
	BytesAcked  int64    `json:"bytesAcked"`
	Retransmits uint64   `json:"retransmits"`
	Timeouts    uint64   `json:"timeouts"`
	Finished    bool     `json:"finished"`
	Delay       Duration `json:"transferDelay,omitempty"`
}

// Report is the scenario outcome.
type Report struct {
	Name            string       `json:"name,omitempty"`
	DurationSeconds float64      `json:"durationSeconds"`
	BottleneckDrops uint64       `json:"bottleneckDrops"`
	Flows           []FlowReport `json:"flows"`
}

// Load parses a scenario from JSON.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// LoadFile parses a scenario from a file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Validate checks the spec for obvious mistakes.
func (s *Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario: at least one flow required")
	}
	for i, f := range s.Flows {
		if _, err := workload.ParseKind(f.Kind); err != nil {
			return fmt.Errorf("scenario: flow %d: %w", i, err)
		}
	}
	if s.Topology != nil {
		if s.Topology.Flows > 0 && s.Topology.Flows < len(s.Flows) {
			return fmt.Errorf("scenario: topology has %d slots for %d flows",
				s.Topology.Flows, len(s.Flows))
		}
		if s.Topology.BottleneckBps < 0 || s.Topology.SideBps < 0 {
			return fmt.Errorf("scenario: negative bandwidth")
		}
	}
	if l := s.Loss; l != nil {
		if l.Rate < 0 || l.Rate > 1 {
			return fmt.Errorf("scenario: loss rate %v outside [0,1]", l.Rate)
		}
		if l.gilbert() {
			if _, _, err := netem.GilbertParams(l.Rate, l.BurstLength); err != nil {
				return fmt.Errorf("scenario: loss: %w", err)
			}
		}
	}
	return nil
}

// Run executes the scenario and returns its report.
func (s *Spec) Run() (*Report, error) {
	return s.RunWithTrace(nil)
}

// RunWithTrace executes the scenario and additionally streams flow 0's
// event trace as CSV to w (when non-nil).
func (s *Spec) RunWithTrace(w io.Writer) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	sched := sim.NewScheduler(seed)

	dcfg := netem.PaperDropTailConfig(len(s.Flows))
	if t := s.Topology; t != nil {
		if t.Flows > 0 {
			dcfg.Flows = t.Flows
		}
		if t.BottleneckBps > 0 {
			dcfg.BottleneckBps = t.BottleneckBps
		}
		if t.BottleneckDelay > 0 {
			dcfg.BottleneckDelay = time.Duration(t.BottleneckDelay)
		}
		if t.SideBps > 0 {
			dcfg.SideBps = t.SideBps
		}
		if t.SideDelay > 0 {
			dcfg.SideDelay = time.Duration(t.SideDelay)
		}
		if t.ForwardQueue != nil {
			q, err := t.ForwardQueue.build(sched)
			if err != nil {
				return nil, err
			}
			dcfg.ForwardQueue = q
		}
		if t.ReverseQueue != nil {
			q, err := t.ReverseQueue.build(sched)
			if err != nil {
				return nil, err
			}
			dcfg.ReverseQueue = q
		}
	}
	if l := s.Loss; l != nil {
		switch {
		case l.gilbert():
			pG2B, pB2G, err := netem.GilbertParams(l.Rate, l.BurstLength)
			if err != nil {
				return nil, err
			}
			dcfg.Loss = netem.NewGilbertLoss(pG2B, pB2G, 1.0, sched.Rand(), nil)
		case l.Rate > 0:
			u := netem.NewUniformLoss(l.Rate, sched.Rand(), nil)
			u.DropAcks = l.DropAcks
			dcfg.Loss = u
		case len(l.Drops) > 0:
			sl := netem.NewSeqLoss(nil)
			for _, fd := range l.Drops {
				for _, pk := range fd.Packets {
					sl.Drop(fd.Flow, pk*int64(tcp.DefaultMSS))
				}
				for _, pk := range fd.Retransmits {
					sl.DropRetransmit(fd.Flow, pk*int64(tcp.DefaultMSS))
				}
			}
			dcfg.Loss = sl
		}
	}

	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return nil, err
	}
	if s.Telemetry.Enabled() {
		d.Instrument(s.Telemetry)
		telemetry.AttachSchedulerProfile(sched, s.Telemetry, 4096)
	}

	flows := make([]*workload.Flow, 0, len(s.Flows))
	for i, fs := range s.Flows {
		kind, err := workload.ParseKind(fs.Kind)
		if err != nil {
			return nil, err
		}
		bytes := fs.Bytes
		if fs.Packets > 0 {
			bytes = fs.Packets * int64(tcp.DefaultMSS)
		}
		if bytes == 0 {
			bytes = tcp.Infinite
		}
		spec := workload.FlowSpec{
			Kind:            kind,
			Bytes:           bytes,
			StartAt:         time.Duration(fs.StartAt),
			Window:          fs.Window,
			InitialSSThresh: fs.SSThresh,
			DelayedAck:      fs.DelayedAck,
			SmoothStart:     fs.SmoothStart,
			Telemetry:       s.Telemetry,
		}
		var flow *workload.Flow
		if fs.Reverse {
			flow, err = workload.InstallReverse(sched, d, i, spec)
		} else {
			flow, err = workload.Install(sched, d, i, spec)
		}
		if err != nil {
			return nil, err
		}
		flows = append(flows, flow)
	}

	if s.SampleEvery > 0 {
		sampler := telemetry.NewSampler(sched, s.Telemetry, s.SampleEvery)
		for i, flow := range flows {
			sampler.AddFlow(int32(i), flow.Sender)
		}
		sampler.AddInstance(telemetry.CompQueue, "fwd", d.BottleneckQueue())
		sampler.Start()
	}

	sched.Run(time.Duration(s.Duration))

	if w != nil && len(flows) > 0 {
		if err := flows[0].Trace.WriteCSV(w); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Name:            s.Name,
		DurationSeconds: time.Duration(s.Duration).Seconds(),
		BottleneckDrops: d.BottleneckQueue().Drops,
	}
	for i, flow := range flows {
		fr := FlowReport{
			Flow:        i,
			Kind:        flow.Spec.Kind.String(),
			Reverse:     s.Flows[i].Reverse,
			GoodputBps:  flow.Trace.GoodputBps(0, time.Duration(s.Duration)),
			BytesAcked:  flow.Trace.BytesAcked,
			Retransmits: flow.Trace.Retransmits,
			Timeouts:    flow.Trace.Timeouts,
		}
		if delay, ok := flow.Trace.TransferDelay(); ok {
			fr.Finished = true
			fr.Delay = Duration(delay)
			// For finished transfers, goodput over the transfer itself is
			// the meaningful figure, not over the whole horizon.
			if delay > 0 {
				fr.GoodputBps = float64(fr.BytesAcked) * 8 / time.Duration(delay).Seconds()
			}
		}
		rep.Flows = append(rep.Flows, fr)
	}
	return rep, nil
}

// RenderText formats the report as an aligned table.
func (r *Report) RenderText() string {
	out := fmt.Sprintf("scenario %q: %.1fs simulated, %d bottleneck drops\n",
		r.Name, r.DurationSeconds, r.BottleneckDrops)
	out += fmt.Sprintf("%-5s %-10s %-8s %-12s %-12s %-5s %-9s %s\n",
		"flow", "kind", "dir", "goodput", "acked", "rtx", "timeouts", "delay")
	for _, f := range r.Flows {
		dir := "fwd"
		if f.Reverse {
			dir = "rev"
		}
		delay := "-"
		if f.Finished {
			delay = time.Duration(f.Delay).String()
		}
		out += fmt.Sprintf("%-5d %-10s %-8s %-12s %-12d %-5d %-9d %s\n",
			f.Flow, f.Kind, dir, fmt.Sprintf("%.1fKbps", f.GoodputBps/1000),
			f.BytesAcked, f.Retransmits, f.Timeouts, delay)
	}
	return out
}
