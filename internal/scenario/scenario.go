// Package scenario is the one place a simulated world is assembled. A
// Spec describes it — topology, queue disciplines, loss injection,
// telemetry, optionally the flows — and Build turns the description into
// a World of scheduler, dumbbell and installed flows. Every experiment
// cell builds its world from a Spec literal; rrsim run loads the same
// Spec from a JSON file, flows and duration included, and runs it.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// Duration is a time.Duration that reads and writes as a "50ms" string
// in JSON; fault plans use the same type.
type Duration = faults.Duration

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

// check reports a queue spec Build could not honour; path is the JSON
// path of q for the error message. An absent spec is the default queue.
func (q *QueueSpec) check(path string) error {
	if q == nil {
		return nil
	}
	switch q.Type {
	case "", "droptail", "fifo", "red", "drr":
	default:
		return fmt.Errorf("scenario: %s.type: unknown queue type %q", path, q.Type)
	}
	if q.Limit < 0 {
		return fmt.Errorf("scenario: %s.limit: negative buffer size %d", path, q.Limit)
	}
	if q.Quantum < 0 {
		return fmt.Errorf("scenario: %s.quantum: negative DRR quantum %d", path, q.Quantum)
	}
	return nil
}

// build constructs the discipline of a spec that has passed check.
func (q *QueueSpec) build(sched *sim.Scheduler) (netem.QueueDiscipline, error) {
	if q.Type == "red" {
		cfg := netem.PaperREDConfig()
		if q.RED != nil {
			cfg = *q.RED
		}
		// An unset limit keeps the RED configuration's own buffer (25 in
		// Table 4): the drop-tail default of 8 sits below RED's thresholds.
		cfg.Limit = cmp.Or(q.Limit, cfg.Limit)
		return netem.NewRED(cfg, sched.Rand())
	}
	limit := cmp.Or(q.Limit, 8) // unset: the Table 3 default
	if q.Type == "drr" {
		return netem.NewDRR(cmp.Or(q.Quantum, 1000), limit)
	}
	return netem.NewDropTail(limit)
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
	// BurstLength, when set (>= 1) together with Rate, switches to a
	// Gilbert-Elliott channel with the given mean loss-burst length at
	// the same stationary rate.
	BurstLength float64 `json:"burstLength,omitempty"`
	// Drops lists deterministic per-flow packet-number drops; it cannot
	// be combined with Rate.
	Drops []FlowDrops `json:"drops,omitempty"`
}

// gilbert reports whether the spec selects the Gilbert-Elliott channel.
func (l *LossSpec) gilbert() bool { return l.Rate > 0 && l.BurstLength >= 1 }

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
	// programmatically (rrsim run samples every 10 ms).
	SampleEvery sim.Time `json:"-"`
}

// FlowReport is one flow's outcome.
type FlowReport struct {
	Flow        int      `json:"flow"`
	Kind        string   `json:"kind"`
	Reverse     bool     `json:"reverse,omitempty"`
	GoodputBps  float64  `json:"goodputBps"`
	BytesAcked  int64    `json:"bytesAcked"`
	Retransmits uint32   `json:"retransmits"`
	Timeouts    uint32   `json:"timeouts"`
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

// Validate checks a complete scenario — one that lists its own flows and
// its own duration — for mistakes; errors name the JSON path at fault.
func (s *Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario: at least one flow required")
	}
	return s.check()
}

// slots is the number of S_i/K_i host pairs the topology gets.
func (s *Spec) slots() int {
	if s.Topology != nil && s.Topology.Flows > 0 {
		return s.Topology.Flows
	}
	return cmp.Or(len(s.Flows), 1)
}

// check is the part of Validate that also holds for a spec whose flows
// are installed after Build and whose horizon is World.Run's argument.
func (s *Spec) check() error {
	for i, f := range s.Flows {
		if _, err := workload.ParseKind(f.Kind); err != nil {
			return fmt.Errorf("scenario: flows[%d].kind: %w", i, err)
		}
		if f.Bytes < tcp.Infinite {
			return fmt.Errorf("scenario: flows[%d].bytes: negative transfer size %d (0 or -1 is unbounded)", i, f.Bytes)
		}
		if f.Packets < 0 {
			return fmt.Errorf("scenario: flows[%d].packets: negative transfer size %d", i, f.Packets)
		}
		if f.StartAt < 0 {
			return fmt.Errorf("scenario: flows[%d].startAt: negative start time %v", i, time.Duration(f.StartAt))
		}
	}
	if t := s.Topology; t != nil {
		if t.Flows > 0 && t.Flows < len(s.Flows) {
			return fmt.Errorf("scenario: topology.flows: %d slots for %d flows", t.Flows, len(s.Flows))
		}
		if t.BottleneckBps < 0 || t.SideBps < 0 || t.BottleneckDelay < 0 || t.SideDelay < 0 {
			return fmt.Errorf("scenario: topology: negative link bandwidth or delay")
		}
		if err := t.ForwardQueue.check("topology.forwardQueue"); err != nil {
			return err
		}
		if err := t.ReverseQueue.check("topology.reverseQueue"); err != nil {
			return err
		}
	}
	if l := s.Loss; l != nil {
		if l.Rate < 0 || l.Rate > 1 {
			return fmt.Errorf("scenario: loss.rate: %v outside [0,1]", l.Rate)
		}
		if l.Rate > 0 && len(l.Drops) > 0 {
			return fmt.Errorf("scenario: loss.drops: cannot be combined with loss.rate")
		}
		if l.BurstLength != 0 {
			if l.Rate == 0 {
				return fmt.Errorf("scenario: loss.burstLength: needs loss.rate")
			}
			if _, _, err := netem.GilbertParams(l.Rate, l.BurstLength); err != nil {
				return fmt.Errorf("scenario: loss.burstLength: %w", err)
			}
		}
		// A spec that lists its flows has exactly those; otherwise any
		// slot may be filled after Build.
		flows := cmp.Or(len(s.Flows), s.slots())
		for i, fd := range l.Drops {
			if fd.Flow < 0 || fd.Flow >= flows {
				return fmt.Errorf("scenario: loss.drops[%d].flow: no flow %d (flows are 0..%d)", i, fd.Flow, flows-1)
			}
		}
	}
	return nil
}

// World is a built simulation: the scheduler, the dumbbell and the
// flows installed on it so far. Anything a run needs beyond what a Spec
// describes — a timer, a cross-traffic source, an interposed node, a
// checker — is attached to Sched and Net between Build and Run.
type World struct {
	Sched *sim.Scheduler
	Net   *netem.Dumbbell
	// Flows holds the installed connections; a flow's index is its slot
	// in the topology and its flow ID. Past its length, up to its
	// capacity, it keeps the flows of earlier worlds for Install to
	// recycle.
	Flows []*workload.Flow

	sampler *telemetry.Sampler // nil unless the spec samples gauges
}

// Build assembles the world a spec describes on a scheduler seeded with
// seed: Rebuild on a zero World.
func Build(seed int64, s *Spec) (World, error) {
	var w World
	if err := w.Rebuild(seed, s); err != nil {
		return World{}, err
	}
	return w, nil
}

// Rebuild assembles the world a spec describes on a scheduler seeded
// with seed: topology, queue disciplines, loss injector, telemetry
// wiring, and the spec's own flows if it lists any. A spec with no
// topology is the paper's Table 3 dumbbell; with no flows either, it has
// one slot. Spec.Seed, Name and Duration are the caller's to apply.
//
// A World that has been built before is rebuilt in its own memory: its
// scheduler is Reset, its dumbbell rebuilt in place and its flows Reset
// as the new world installs into their slots, so the new world runs
// exactly as a freshly built one while allocating little of what the
// old one grew. Everything of the old world — flows, endpoints, traces
// and their samples, timers, random sources, packets, anything attached
// to it — is invalid afterwards, and a caller must not rebuild a world
// something still reads. After an error the World must be rebuilt
// before it is used.
func (w *World) Rebuild(seed int64, s *Spec) error {
	if err := s.check(); err != nil {
		return err
	}
	if w.Sched == nil {
		w.Sched = sim.NewScheduler(seed)
	} else {
		w.Sched.Reset(seed)
	}
	sched := w.Sched

	// Table 3 (netem.PaperDropTailConfig), but with no forward queue
	// unless the spec names one: the forward link's own 8-packet
	// drop-tail is the same queue, and it keeps its ring across rebuilds.
	dcfg := netem.DumbbellConfig{
		Flows:           s.slots(),
		BottleneckBps:   0.8e6,
		BottleneckDelay: 50 * time.Millisecond,
		SideBps:         10e6,
		SideDelay:       time.Millisecond,
	}
	if t := s.Topology; t != nil {
		// Unset (zero) keeps Table 3; check rejected negatives.
		dcfg.BottleneckBps = cmp.Or(t.BottleneckBps, dcfg.BottleneckBps)
		dcfg.BottleneckDelay = cmp.Or(time.Duration(t.BottleneckDelay), dcfg.BottleneckDelay)
		dcfg.SideBps = cmp.Or(t.SideBps, dcfg.SideBps)
		dcfg.SideDelay = cmp.Or(time.Duration(t.SideDelay), dcfg.SideDelay)
		if t.ForwardQueue != nil {
			q, err := t.ForwardQueue.build(sched)
			if err != nil {
				return err
			}
			dcfg.ForwardQueue = q
		}
		if t.ReverseQueue != nil {
			q, err := t.ReverseQueue.build(sched)
			if err != nil {
				return err
			}
			dcfg.ReverseQueue = q
		}
	}
	if l := s.Loss; l != nil {
		switch {
		case l.gilbert():
			pG2B, pB2G, _ := netem.GilbertParams(l.Rate, l.BurstLength) // check derived them once already
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

	if w.Net == nil {
		w.Net = new(netem.Dumbbell)
	}
	if err := w.Net.Rebuild(sched, dcfg); err != nil {
		return err
	}
	// The old world's flows stay past the length, for Install to reset.
	if cap(w.Flows) < dcfg.Flows {
		w.Flows = slices.Grow(w.Flows[:cap(w.Flows)], dcfg.Flows-cap(w.Flows))
	}
	w.Flows, w.sampler = w.Flows[:0], nil
	if s.Telemetry != nil {
		// Instrumented whether or not anything listens yet: a sink may
		// subscribe after the build (the invariant checker needs the
		// built scheduler). The sampler still starts only on a bus that
		// already has a subscriber.
		w.Net.Instrument(s.Telemetry)
		w.sampler = telemetry.NewSampler(sched, s.Telemetry, s.SampleEvery)
		w.sampler.AddInstance(telemetry.CompQueue, "fwd", w.Net.BottleneckQueue())
	}

	for _, fs := range s.Flows {
		spec := fs.workload(s.Telemetry)
		var err error
		if fs.Reverse {
			_, err = w.InstallReverse(spec)
		} else {
			_, err = w.Install(spec)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// workload converts the JSON flow description to the installer's.
func (fs *FlowSpec) workload(bus *telemetry.Bus) workload.FlowSpec {
	kind, _ := workload.ParseKind(fs.Kind) // check parsed it once already
	bytes := fs.Bytes
	if fs.Packets > 0 {
		bytes = fs.Packets * int64(tcp.DefaultMSS)
	}
	return workload.FlowSpec{
		Kind:            kind,
		Bytes:           bytes, // 0 is unbounded, as the installer reads it
		StartAt:         time.Duration(fs.StartAt),
		Window:          fs.Window,
		InitialSSThresh: fs.SSThresh,
		DelayedAck:      fs.DelayedAck,
		SmoothStart:     fs.SmoothStart,
		Telemetry:       bus,
	}
}

// Install wires a flow into the next free slot of the dumbbell, sender
// on the S side, and schedules its start.
func (w *World) Install(spec workload.FlowSpec) (*workload.Flow, error) {
	return w.install(spec, false)
}

// InstallReverse is Install with the sender on the K side: the flow's
// data crosses the reverse bottleneck and its ACKs the forward one.
func (w *World) InstallReverse(spec workload.FlowSpec) (*workload.Flow, error) {
	return w.install(spec, true)
}

// install resets the flow an earlier world left in the next slot, or a
// new one, into the flow spec describes.
func (w *World) install(spec workload.FlowSpec, reverse bool) (*workload.Flow, error) {
	i := len(w.Flows)
	var flow *workload.Flow
	if i < cap(w.Flows) {
		flow = w.Flows[:i+1][i]
	}
	if flow == nil {
		flow = new(workload.Flow)
	}
	if err := flow.Reset(w.Sched, w.Net, i, spec, reverse); err != nil {
		return nil, err
	}
	w.sampler.AddFlow(int32(i), flow.Sender)
	w.Flows = append(w.Flows, flow)
	return flow, nil
}

// Run starts the gauge sampler, if the spec asked for one, and runs the
// simulation until the horizon, a Stop, or a tripped guard.
func (w *World) Run(horizon sim.Time) {
	w.sampler.Start()
	w.Sched.Run(horizon)
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
	world, err := Build(cmp.Or(s.Seed, 1), s)
	if err != nil {
		return nil, err
	}
	if w != nil {
		world.Flows[0].Trace.Record()
	}
	world.Run(time.Duration(s.Duration))

	if w != nil {
		if err := world.Flows[0].Trace.WriteCSV(w); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Name:            s.Name,
		DurationSeconds: time.Duration(s.Duration).Seconds(),
		BottleneckDrops: world.Net.BottleneckQueue().Drops,
	}
	for i, flow := range world.Flows {
		snd := flow.Sender
		fr := FlowReport{
			Flow:        i,
			Kind:        flow.Spec.Kind.String(),
			Reverse:     s.Flows[i].Reverse,
			GoodputBps:  float64(snd.SndUna()) * 8 / time.Duration(s.Duration).Seconds(),
			BytesAcked:  snd.SndUna(),
			Retransmits: snd.Retransmits(),
			Timeouts:    snd.Timeouts(),
		}
		if delay, ok := snd.TransferDelay(); ok {
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
