package faults

import (
	"fmt"
	"math/rand"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// FlapSpec is one scheduled link outage: both bottleneck directions
// lose carrier at At and recover Down later. Everything on the wire at
// At is lost; the gateway queues survive.
type FlapSpec struct {
	At   Duration `json:"at"`
	Down Duration `json:"down"`
}

// RenegSpec is one scheduled mid-flow parameter change on the
// bottleneck (both directions). Zero-valued fields leave that
// parameter untouched.
type RenegSpec struct {
	At Duration `json:"at"`
	// BandwidthBps, when positive, becomes the new bottleneck rate.
	BandwidthBps float64 `json:"bandwidthBps,omitempty"`
	// Delay, when positive, becomes the new one-way propagation delay —
	// an RTT step change.
	Delay Duration `json:"delay,omitempty"`
}

// AckSpec configures reverse-path ACK compression.
type AckSpec struct {
	// Hold is how long the first ACK of a batch is detained.
	Hold Duration `json:"hold"`
	// Max releases the batch early once this many ACKs are held.
	Max int `json:"max"`
}

// PlanSpec is a complete, serializable fault schedule for one run. A
// zero PlanSpec injects nothing.
type PlanSpec struct {
	Flaps          []FlapSpec  `json:"flaps,omitempty"`
	Renegotiations []RenegSpec `json:"renegotiations,omitempty"`

	// ReorderRate holds back that fraction of forward-path packets by an
	// extra delay uniform in [ReorderMinDelay, ReorderMaxDelay].
	ReorderRate     float64  `json:"reorderRate,omitempty"`
	ReorderMinDelay Duration `json:"reorderMinDelay,omitempty"`
	ReorderMaxDelay Duration `json:"reorderMaxDelay,omitempty"`

	// DuplicateRate duplicates that fraction of forward-path packets.
	DuplicateRate float64 `json:"duplicateRate,omitempty"`

	// CorruptRate drops that fraction of forward-path packets (a failed
	// checksum discards the segment).
	CorruptRate float64 `json:"corruptRate,omitempty"`

	// Ack, when non-nil, compresses the reverse ACK path.
	Ack *AckSpec `json:"ack,omitempty"`
}

// Validate checks the plan's internal consistency.
func (p *PlanSpec) Validate() error {
	for i, f := range p.Flaps {
		if f.At < 0 {
			return fmt.Errorf("faults: flap %d: negative start %v", i, time.Duration(f.At))
		}
		if f.Down <= 0 {
			return fmt.Errorf("faults: flap %d: outage must be positive, got %v", i, time.Duration(f.Down))
		}
	}
	for i, r := range p.Renegotiations {
		if r.At < 0 {
			return fmt.Errorf("faults: renegotiation %d: negative start %v", i, time.Duration(r.At))
		}
		if r.BandwidthBps == 0 && r.Delay == 0 {
			return fmt.Errorf("faults: renegotiation %d changes nothing", i)
		}
		if r.BandwidthBps < 0 {
			return fmt.Errorf("faults: renegotiation %d: negative bandwidth %v", i, r.BandwidthBps)
		}
		if r.Delay < 0 {
			return fmt.Errorf("faults: renegotiation %d: negative delay %v", i, time.Duration(r.Delay))
		}
	}
	for _, rc := range []struct {
		what string
		rate float64
	}{{"reorder", p.ReorderRate}, {"duplicate", p.DuplicateRate}, {"corrupt", p.CorruptRate}} {
		if err := validateRate(rc.what, rc.rate); err != nil {
			return err
		}
	}
	if p.ReorderRate > 0 && (p.ReorderMinDelay < 0 || p.ReorderMaxDelay < p.ReorderMinDelay) {
		return fmt.Errorf("faults: reorder delay range [%v, %v] invalid",
			time.Duration(p.ReorderMinDelay), time.Duration(p.ReorderMaxDelay))
	}
	if p.Ack != nil {
		if p.Ack.Hold <= 0 {
			return fmt.Errorf("faults: ACK hold must be positive, got %v", time.Duration(p.Ack.Hold))
		}
		if p.Ack.Max < 2 {
			return fmt.Errorf("faults: ACK batch size must be >= 2, got %d", p.Ack.Max)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p *PlanSpec) Active() bool {
	return len(p.Flaps) > 0 || len(p.Renegotiations) > 0 ||
		p.ReorderRate > 0 || p.DuplicateRate > 0 || p.CorruptRate > 0 || p.Ack != nil
}

// Apply arms the plan on a dumbbell: schedules the flaps and
// renegotiations, and splices the probabilistic injectors into the
// forward path (corrupt → duplicate → reorder → bottleneck) and the
// ACK compressor into the reverse path. The rng drives every
// probabilistic decision; pass a stream derived from the run seed
// (sched.DeriveRand) for reproducibility. The bus may be nil.
func (p *PlanSpec) Apply(sched *sim.Scheduler, d *netem.Dumbbell, rng *rand.Rand, bus *telemetry.Bus) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if sched == nil || d == nil {
		return fmt.Errorf("faults: apply needs a scheduler and a topology")
	}
	if rng == nil && (p.ReorderRate > 0 || p.DuplicateRate > 0 || p.CorruptRate > 0) {
		return fmt.Errorf("faults: probabilistic injection needs a random source")
	}

	for _, f := range p.Flaps {
		f := f
		if err := sched.NewTimer(func() {
			d.ForwardLink().SetDown(true)
			d.ReverseLink().SetDown(true)
		}).At(f.At.D()); err != nil {
			return fmt.Errorf("faults: schedule flap: %w", err)
		}
		if err := sched.NewTimer(func() {
			d.ForwardLink().SetDown(false)
			d.ReverseLink().SetDown(false)
		}).At(f.At.D() + f.Down.D()); err != nil {
			return fmt.Errorf("faults: schedule flap recovery: %w", err)
		}
	}

	for _, r := range p.Renegotiations {
		r := r
		if err := sched.NewTimer(func() {
			for _, l := range []*netem.Link{d.ForwardLink(), d.ReverseLink()} {
				if r.BandwidthBps > 0 {
					// Validated above; Set* re-checks and cannot fail here.
					_ = l.SetBandwidth(r.BandwidthBps)
				}
				if r.Delay > 0 {
					_ = l.SetDelay(r.Delay.D())
				}
			}
		}).At(r.At.D()); err != nil {
			return fmt.Errorf("faults: schedule renegotiation: %w", err)
		}
	}

	// Forward-path injector chain, innermost (closest to the bottleneck)
	// first: a duplicated packet can still be reordered, a corrupted one
	// is gone before either.
	entry := d.ForwardEntry()
	if p.ReorderRate > 0 {
		ro, err := NewReorderer(sched, rng, p.ReorderRate, p.ReorderMinDelay.D(), p.ReorderMaxDelay.D(), entry)
		if err != nil {
			return err
		}
		ro.Instrument(bus, "reorder")
		entry = ro
	}
	if p.DuplicateRate > 0 {
		du, err := NewDuplicator(sched, rng, p.DuplicateRate, entry)
		if err != nil {
			return err
		}
		du.Instrument(bus, "dup")
		entry = du
	}
	if p.CorruptRate > 0 {
		co, err := NewCorrupter(sched, rng, p.CorruptRate, entry)
		if err != nil {
			return err
		}
		co.Instrument(bus, "corrupt")
		entry = co
	}
	if entry != d.ForwardEntry() {
		d.SetForwardEntry(entry)
	}

	if p.Ack != nil {
		ac, err := NewAckCompressor(sched, p.Ack.Hold.D(), p.Ack.Max, d.ReverseEntry())
		if err != nil {
			return err
		}
		ac.Instrument(bus, "ackc")
		d.SetReverseEntry(ac)
	}
	return nil
}

// RandomPlanSpec draws a bounded-severity random fault schedule over
// [0, horizon) for the given topology, for chaos sweeps. Severity is
// capped so a correct TCP should survive (possibly slowly): short
// outages, rate cuts no deeper than 4×, reorder/dup/corrupt rates of a
// few percent. Identical (rng state, horizon, cfg) inputs yield the
// identical plan.
func RandomPlanSpec(rng *rand.Rand, horizon sim.Time, cfg netem.DumbbellConfig) PlanSpec {
	var p PlanSpec

	between := func(lo, hi time.Duration) Duration {
		if hi <= lo {
			return Duration(lo)
		}
		return Duration(lo + time.Duration(rng.Int63n(int64(hi-lo))))
	}
	// Fault onsets land in the middle 70% of the horizon, so flows have
	// started and still have time to recover.
	onset := func() Duration { return between(horizon/10, horizon*8/10) }

	for i, n := 0, rng.Intn(4); i < n; i++ {
		p.Flaps = append(p.Flaps, FlapSpec{At: onset(), Down: between(50*time.Millisecond, 2*time.Second)})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r := RenegSpec{At: onset()}
		if rng.Intn(2) == 0 {
			// float64(...) rounds each product, so no architecture
			// fuses it into a multiply-add and a plan is the same
			// everywhere.
			r.BandwidthBps = cfg.BottleneckBps * (0.25 + float64(1.75*rng.Float64()))
		} else {
			r.Delay = Duration(float64(cfg.BottleneckDelay) * (0.5 + float64(3.5*rng.Float64())))
		}
		p.Renegotiations = append(p.Renegotiations, r)
	}
	if rng.Intn(2) == 0 {
		p.ReorderRate = 0.05 * rng.Float64()
		p.ReorderMinDelay = between(5*time.Millisecond, 20*time.Millisecond)
		p.ReorderMaxDelay = p.ReorderMinDelay + between(0, 30*time.Millisecond)
	}
	if rng.Intn(2) == 0 {
		p.DuplicateRate = 0.02 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		p.CorruptRate = 0.02 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		p.Ack = &AckSpec{Hold: between(10*time.Millisecond, 100*time.Millisecond), Max: 4 + rng.Intn(13)}
	}
	return p
}
