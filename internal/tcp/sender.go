// Package tcp implements the sender- and receiver-side TCP machinery
// the paper's evaluation depends on: segment/ACK generation, RTT
// estimation with a coarse-grained retransmission timer, slow start and
// congestion avoidance, and the eight loss-recovery baselines — Tahoe,
// Reno, New-Reno, SACK TCP (1996 and RFC 6675 pipe), FACK, right-edge
// recovery and Lin-Kung. Entering and leaving fast recovery is written
// once (Recovery, recovery.go); each baseline holds only the rule that
// distinguishes it. The paper's own contribution, Robust Recovery, plugs
// into the same Sender through the Strategy interface and lives in
// internal/core.
package tcp

import (
	"fmt"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
)

// DupThresh is the classic three-duplicate-ACK fast-retransmit trigger.
const DupThresh = 3

// DefaultMSS matches the paper's 1000-byte data packets.
const DefaultMSS = 1000

// Infinite marks a flow with unbounded data to send.
const Infinite int64 = -1

// AckEvent summarizes an incoming acknowledgment for a Strategy.
type AckEvent struct {
	// AckNo is the cumulative acknowledgment.
	AckNo int64
	// SACK carries the selective-acknowledgment blocks, if any.
	SACK []netem.SACKBlock
	// IsDup reports a pure duplicate: AckNo equals SndUna while data is
	// outstanding.
	IsDup bool
}

// Strategy is the pluggable congestion-control / loss-recovery state
// machine of a Sender. The Sender handles segment bookkeeping, RTT
// estimation, the retransmission timer, and application completion;
// the Strategy decides how the window evolves and what gets
// (re)transmitted in response to ACKs and timeouts.
type Strategy interface {
	// Name identifies the variant ("tahoe", "newreno", "rr", ...).
	Name() string
	// OnAck handles one acknowledgment. It runs after the Sender has
	// taken its RTT sample but before any state is advanced: the
	// strategy itself calls Sender methods (AdvanceUna, GrowWindow,
	// PumpWindow, Retransmit, ...) to effect the response.
	OnAck(s *Sender, ev AckEvent)
	// OnTimeout lets the strategy reset recovery state after the Sender
	// has performed the standard timeout actions (collapse to slow
	// start and go-back-N).
	OnTimeout(s *Sender)
}

// Config parameterizes a Sender.
type Config struct {
	// Flow is the connection identifier used in packet headers.
	Flow int
	// MSS is the segment payload size; the wire size of a data packet
	// equals MSS here, matching the paper's "each data packet is 1000
	// bytes long".
	MSS int
	// Window is the receiver's advertised window in packets.
	Window int
	// InitialSSThresh is the initial slow-start threshold in packets;
	// zero defaults to Window.
	InitialSSThresh float64
	// TotalBytes bounds the transfer; Infinite for an unbounded FTP.
	TotalBytes int64
	// SmoothStart enables the slow-start refinement of Wang, Xin,
	// Reeves & Shin (ISCC 2000) — the paper's reference [21], described
	// there as orthogonal to recovery enhancements: once cwnd passes
	// half of ssthresh, growth slows from doubling to ×1.5 per RTT so
	// the final approach to the knee does not burst the gateway buffer.
	SmoothStart bool
	// Trace, if non-nil and recording, logs the flow's events.
	Trace *trace.FlowTrace
	// Telemetry, if non-nil, receives every sender event a recording
	// Trace logs (plus recovery-internal ones) as structured telemetry.
	// The sender builds an event only when one of the two takes it.
	Telemetry *telemetry.Bus
	// OnDone runs when the transfer completes (all bytes acked).
	OnDone func()
	// Pool, when non-nil, supplies outgoing packets and receives every
	// consumed ACK back; topologies share one pool across their
	// endpoints so steady-state traffic allocates no packets.
	Pool *netem.PacketPool
}

func (c *Config) fillDefaults() {
	if c.MSS <= 0 {
		c.MSS = DefaultMSS
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.InitialSSThresh <= 0 {
		c.InitialSSThresh = float64(c.Window)
	}
	if c.TotalBytes == 0 {
		c.TotalBytes = Infinite
	}
}

// Sender is one TCP connection's sending side. Construct with New and
// a Strategy; start transmission with Start.
type Sender struct {
	sched *sim.Scheduler
	out   netem.Node
	cfg   Config
	strat Strategy

	sndUna int64 // lowest unacknowledged byte
	sndNxt int64 // next new byte to transmit
	maxSeq int64 // highest sequence transmitted so far (snd.nxt high-water)

	cwnd     float64 // packets
	ssthresh float64 // packets
	dupAcks  int

	rtt        rttEstimator
	rtxTimer   *sim.Timer
	rtoBackoff uint
	startTimer *sim.Timer

	// Karn's algorithm: one outstanding RTT measurement at a time,
	// invalidated by retransmission of the timed segment.
	rttSeq     int64
	rttSentAt  sim.Time
	rttPending bool

	// Flow accounting: the counts behind the paper's per-connection
	// scalars (transfer delay, packet-loss rate) and the flow-done
	// event. The sender is the one place a flow is counted.
	startedAt    sim.Time
	doneAt       sim.Time
	sent         uint32 // first transmissions
	rtxCount     uint32
	timeoutCount uint32
	acks         uint32 // ACKs processed, duplicates included

	started bool
	done    bool
}

var _ netem.Node = (*Sender)(nil)

// New builds a sender transmitting into out under the given strategy.
func New(sched *sim.Scheduler, out netem.Node, strat Strategy, cfg Config) (*Sender, error) {
	if sched == nil || out == nil || strat == nil {
		return nil, fmt.Errorf("tcp: nil scheduler, output node, or strategy")
	}
	cfg.fillDefaults()
	s := &Sender{
		sched:    sched,
		out:      out,
		cfg:      cfg,
		strat:    strat,
		cwnd:     1,
		ssthresh: cfg.InitialSSThresh,
	}
	s.rtxTimer = sched.NewTimer(s.onTimeout)
	s.startTimer = sched.NewTimer(s.onStart)
	return s, nil
}

// Start schedules the flow to begin transmitting after delay.
func (s *Sender) Start(delay sim.Time) error {
	if s.started {
		return fmt.Errorf("tcp: flow %d already started", s.cfg.Flow)
	}
	s.started = true
	return s.startTimer.At(s.sched.Now() + delay)
}

// onStart fires when the configured start delay elapses.
func (s *Sender) onStart() {
	s.startedAt = s.sched.Now()
	if s.cfg.Telemetry.Enabled() {
		// Built inline rather than via Emit: lifecycle events carry the
		// variant name in Src so flow-level sinks can aggregate per
		// variant without a side table.
		s.cfg.Telemetry.Publish(telemetry.Event{
			At:   s.startedAt,
			Comp: telemetry.CompSender,
			Kind: telemetry.KFlowStart,
			Src:  s.strat.Name(),
			Flow: int32(s.cfg.Flow),
			A:    float64(s.cfg.TotalBytes),
		})
	}
	s.PumpWindow()
}

// Retransmits returns the cumulative retransmission count.
func (s *Sender) Retransmits() uint32 { return s.rtxCount }

// Timeouts returns the cumulative retransmission-timer expirations.
func (s *Sender) Timeouts() uint32 { return s.timeoutCount }

// Acks returns the number of ACKs processed, duplicates included.
func (s *Sender) Acks() uint32 { return s.acks }

// LossRate is the fraction of data transmissions (retransmissions
// included) that were retransmissions — the "packet loss rate" metric
// of the paper's Table 5.
func (s *Sender) LossRate() float64 {
	total := s.sent + s.rtxCount
	if total == 0 {
		return 0
	}
	return float64(s.rtxCount) / float64(total)
}

// TransferDelay is the elapsed time from the flow's start to its
// completion; it returns false if the transfer never completed.
func (s *Sender) TransferDelay() (sim.Time, bool) {
	if !s.done {
		return 0, false
	}
	return s.doneAt - s.startedAt, true
}

// --- accessors used by strategies and experiments ---

// Flow returns the connection identifier.
func (s *Sender) Flow() int { return s.cfg.Flow }

// VariantName returns the attached strategy's name.
func (s *Sender) VariantName() string { return s.strat.Name() }

// MSS returns the segment size in bytes.
func (s *Sender) MSS() int { return s.cfg.MSS }

// SndUna returns the lowest unacknowledged byte.
func (s *Sender) SndUna() int64 { return s.sndUna }

// SndNxt returns the next new byte to transmit.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// MaxSeq returns the highest byte sequence sent so far.
func (s *Sender) MaxSeq() int64 { return s.maxSeq }

// Cwnd returns the congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SetCwnd sets the congestion window (packets), clamped to [1, Window].
func (s *Sender) SetCwnd(pkts float64) {
	if pkts < 1 {
		pkts = 1
	}
	if pkts > float64(s.cfg.Window) {
		pkts = float64(s.cfg.Window)
	}
	s.cwnd = pkts
	s.Emit(telemetry.CompSender, telemetry.KCwnd, s.sndUna, s.cwnd, 0)
}

// Ssthresh returns the slow-start threshold in packets.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// SetSsthresh sets the slow-start threshold (packets), floored at 2.
func (s *Sender) SetSsthresh(pkts float64) {
	if pkts < 2 {
		pkts = 2
	}
	s.ssthresh = pkts
}

// DupAcks returns the consecutive duplicate-ACK count.
func (s *Sender) DupAcks() int { return s.dupAcks }

// SetDupAcks overrides the duplicate-ACK count.
func (s *Sender) SetDupAcks(n int) { s.dupAcks = n }

// FlightPackets estimates outstanding packets as (SndNxt-SndUna)/MSS.
func (s *Sender) FlightPackets() int {
	return int((s.sndNxt - s.sndUna) / int64(s.cfg.MSS))
}

// Window returns the receiver's advertised window in packets.
func (s *Sender) Window() int { return s.cfg.Window }

// Done reports whether the transfer has completed.
func (s *Sender) Done() bool { return s.done }

// SRTT exposes the smoothed RTT estimate in seconds.
func (s *Sender) SRTT() float64 { return s.rtt.SRTT() }

// RTOBackoff reports the current exponential-backoff shift applied to
// the retransmission timeout (0 outside repeated-timeout situations).
func (s *Sender) RTOBackoff() uint { return s.rtoBackoff }

// TimerArmed reports whether the retransmission timer is pending — a
// sender with outstanding data and no armed timer is deadlocked, which
// is exactly what the invariant checker's watchdog looks for.
func (s *Sender) TimerArmed() bool { return s.rtxTimer.Armed() }

// Strategy exposes the congestion-control strategy driving this sender.
func (s *Sender) Strategy() Strategy { return s.strat }

// Emit publishes one structured event for this flow: to the flow's
// trace, if it is recording, and to the shared telemetry bus.
// Strategies use it for recovery phase transitions; the sender itself
// uses it for the segment/ACK/timer lifecycle. With neither taking the
// event it builds none.
func (s *Sender) Emit(comp telemetry.Component, kind telemetry.Kind, seq int64, a, b float64) {
	if !s.cfg.Trace.Recording() && !s.cfg.Telemetry.Enabled() {
		return
	}
	ev := telemetry.Event{
		At:   s.sched.Now(),
		Comp: comp,
		Kind: kind,
		Flow: int32(s.cfg.Flow),
		Seq:  seq,
		A:    a,
		B:    b,
	}
	s.cfg.Trace.OnEvent(ev)
	s.cfg.Telemetry.Publish(ev)
}

// SampleGauges implements telemetry.GaugeSource: the periodic Sampler
// calls it to record the window/RTT state the paper's figures plot.
// Strategies that track actnum (RR) expose it through an optional
// accessor and get an extra gauge.
func (s *Sender) SampleGauges(emit func(gauge string, v float64)) {
	emit("cwnd", s.cwnd)
	emit("ssthresh", s.ssthresh)
	emit("srtt", s.rtt.SRTT())
	emit("rto", s.currentRTO().Seconds())
	emit("flight", float64(s.FlightPackets()))
	if a, ok := s.strat.(interface{ Actnum() int }); ok {
		emit("actnum", float64(a.Actnum()))
	}
}

// TotalBytes returns the configured transfer size (Infinite if unbounded).
func (s *Sender) TotalBytes() int64 { return s.cfg.TotalBytes }

// --- ACK ingress ---

// Receive implements netem.Node for the sender side: it consumes ACKs.
func (s *Sender) Receive(p *netem.Packet) {
	defer p.Release() // strategies copy what they keep of the ACK
	if s.done || p.Kind != netem.Ack || p.Flow != s.cfg.Flow {
		return
	}
	if p.AckNo < s.sndUna {
		return // stale, reordered ACK
	}
	if p.AckNo > s.maxSeq {
		// Acknowledges data never sent — a forged or corrupted ACK.
		// RFC 793: drop it rather than let it fabricate sender state.
		// (The bound is the snd.nxt high-water mark, not snd.nxt itself:
		// after a go-back-N rewind a legitimate cumulative ACK covering
		// receiver-buffered data exceeds the rewound snd.nxt.)
		return
	}
	ev := AckEvent{
		AckNo: p.AckNo,
		SACK:  p.SACK,
		IsDup: p.AckNo == s.sndUna && s.sndNxt > s.sndUna,
	}
	s.acks++
	s.Emit(telemetry.CompSender, telemetry.KAck, p.AckNo, 0, 0)
	if ev.IsDup {
		s.Emit(telemetry.CompSender, telemetry.KDupAck, p.AckNo, 0, 0)
	}
	// RTT sampling (Karn-safe: the pending sample is cancelled whenever
	// the timed segment is retransmitted).
	if s.rttPending && p.AckNo > s.rttSeq {
		s.rtt.sample(s.sched.Now() - s.rttSentAt)
		s.rttPending = false
	}
	if p.AckNo > s.sndUna {
		s.rtoBackoff = 0
	}
	s.strat.OnAck(s, ev)
}

// AdvanceUna moves the left window edge to ackNo, restarts or stops the
// retransmission timer, and fires completion. Strategies call it for
// every ACK that acknowledges new data.
func (s *Sender) AdvanceUna(ackNo int64) {
	if ackNo <= s.sndUna {
		return
	}
	s.sndUna = ackNo
	if s.sndNxt < s.sndUna {
		s.sndNxt = s.sndUna
	}
	if s.cfg.TotalBytes != Infinite && s.sndUna >= s.cfg.TotalBytes {
		s.complete()
		return
	}
	if s.sndNxt > s.sndUna {
		s.rtxTimer.Reset(s.currentRTO())
	} else {
		s.rtxTimer.Stop()
	}
}

func (s *Sender) complete() {
	s.done = true
	s.doneAt = s.sched.Now()
	s.rtxTimer.Stop()
	// The accounting event precedes the lifecycle close so stream
	// consumers (span assembly included) see "done" as the flow's final
	// event.
	if s.cfg.Telemetry.Enabled() {
		s.cfg.Telemetry.Publish(telemetry.Event{
			At:   s.doneAt,
			Comp: telemetry.CompSender,
			Kind: telemetry.KFlowStats,
			Src:  s.strat.Name(),
			Flow: int32(s.cfg.Flow),
			Seq:  s.sndUna,
			A:    float64(s.rtxCount),
			B:    float64(s.timeoutCount),
		})
	}
	s.Emit(telemetry.CompSender, telemetry.KFlowDone, s.sndUna, 0, 0)
	if s.cfg.OnDone != nil {
		s.cfg.OnDone()
	}
}

// GrowWindow applies the per-ACK slow-start / congestion-avoidance
// increase: +1 packet per ACK below ssthresh, +1/cwnd above it. With
// SmoothStart, the upper half of the slow-start region grows at half
// rate (×1.5 per RTT), the paper's [21] burst-damping refinement.
func (s *Sender) GrowWindow() {
	switch {
	case s.cwnd >= s.ssthresh:
		s.SetCwnd(s.cwnd + 1/s.cwnd)
	case s.cfg.SmoothStart && s.cwnd >= s.ssthresh/2:
		s.SetCwnd(s.cwnd + 0.5)
	default:
		s.SetCwnd(s.cwnd + 1)
	}
}

// --- transmission ---

// availableBytes reports how much unsent application data remains.
func (s *Sender) availableBytes() int64 {
	if s.cfg.TotalBytes == Infinite {
		return 1 << 62
	}
	return s.cfg.TotalBytes - s.sndNxt
}

// HasNewData reports whether the application has unsent bytes.
func (s *Sender) HasNewData() bool { return s.availableBytes() > 0 }

// SendNewSegment transmits one new MSS-sized segment at SndNxt,
// ignoring the congestion window (strategies that meter transmissions
// themselves — RR, SACK — use this directly). Self-metered recovery may
// overshoot the advertised window by the dup-ACK clock (the paper's
// model assumes a receiver window above the operating point), but twice
// the advertised window is a hard sanity bound: past it something is
// broken, and no more data enters the pipe. It reports whether a
// segment was sent.
func (s *Sender) SendNewSegment() bool {
	if s.done {
		return false
	}
	if s.FlightPackets() >= 2*s.cfg.Window {
		return false
	}
	avail := s.availableBytes()
	if avail <= 0 {
		return false
	}
	n := int64(s.cfg.MSS)
	if avail < n {
		n = avail
	}
	seq := s.sndNxt
	s.sndNxt += n
	if s.sndNxt > s.maxSeq {
		s.maxSeq = s.sndNxt
	}
	s.transmit(seq, int(n), false)
	return true
}

// PumpWindow sends new segments while the effective window
// (min(cwnd, advertised window) minus flight) permits.
func (s *Sender) PumpWindow() {
	for s.FlightPackets() < s.effectiveWindow() {
		if !s.SendNewSegment() {
			return
		}
	}
}

func (s *Sender) effectiveWindow() int {
	w := s.cwnd
	if fw := float64(s.cfg.Window); w > fw {
		w = fw
	}
	return int(w)
}

// Retransmit resends the MSS-sized segment starting at seq.
func (s *Sender) Retransmit(seq int64) {
	if s.done {
		return
	}
	n := int64(s.cfg.MSS)
	if s.cfg.TotalBytes != Infinite && seq+n > s.cfg.TotalBytes {
		n = s.cfg.TotalBytes - seq
	}
	if n <= 0 {
		return
	}
	// Karn: invalidate a pending RTT sample for a retransmitted range.
	if s.rttPending && seq <= s.rttSeq {
		s.rttPending = false
	}
	s.transmit(seq, int(n), true)
}

func (s *Sender) transmit(seq int64, n int, rtx bool) {
	p := s.cfg.Pool.Get()
	p.Flow = s.cfg.Flow
	p.Kind = netem.Data
	p.Seq = seq
	p.Len = n
	p.Size = n
	p.Retransmit = rtx
	if rtx {
		s.rtxCount++
		s.Emit(telemetry.CompSender, telemetry.KRetransmit, seq, 0, 0)
	} else {
		s.sent++
		s.Emit(telemetry.CompSender, telemetry.KSend, seq, 0, 0)
		if !s.rttPending {
			s.rttSeq = seq
			s.rttSentAt = s.sched.Now()
			s.rttPending = true
		}
	}
	if !s.rtxTimer.Armed() {
		s.rtxTimer.Reset(s.currentRTO())
	}
	s.out.Receive(p)
}

// GoBackN collapses SndNxt to SndUna so transmission resumes from the
// first unacknowledged byte, as in Tahoe fast retransmit and timeouts.
func (s *Sender) GoBackN() {
	s.sndNxt = s.sndUna
	s.rttPending = false
}

// RestartTimer re-arms the retransmission timer at the current RTO, as
// recovery algorithms do on partial ACKs.
func (s *Sender) RestartTimer() { s.rtxTimer.Reset(s.currentRTO()) }

func (s *Sender) currentRTO() sim.Time {
	rto := s.rtt.rto() << s.rtoBackoff
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// --- timeout path ---

// onTimeout performs the standard TCP timeout: halve ssthresh from the
// current flight, collapse cwnd to one segment, go back to SndUna, back
// off the timer exponentially, and retransmit the first lost segment.
// The strategy is notified afterwards so it can discard recovery state.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	s.timeoutCount++
	s.Emit(telemetry.CompSender, telemetry.KTimeout, s.sndUna, 0, 0)
	s.HalveSsthresh()
	s.SetCwnd(1)
	s.dupAcks = 0
	s.sndNxt = s.sndUna // go-back-N
	s.rttPending = false
	if s.rtoBackoff < 6 {
		s.rtoBackoff++
	}
	s.strat.OnTimeout(s)
	s.Retransmit(s.sndUna)
	s.rtxTimer.Reset(s.currentRTO())
}
