package netem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// laneLink is the link as it was while every link owned its two lanes:
// the packets on its wire in one, its serialization completion in the
// other. Link now pushes the same events, at the same points, on lanes
// the whole world shares; this double is the order it must reproduce.
type laneLink struct {
	bps   float64
	delay sim.Time
	dst   Node
	queue Queue
	wire  sim.Lane[laneWire]
	tx    sim.Lane[struct{}]

	busy, down        bool
	flaps, faultDrops uint64
}

type laneWire struct {
	p     *Packet
	flaps uint64
}

func newLaneLink(s *sim.Scheduler, bps float64, delay sim.Time, q QueueDiscipline, dst Node) *laneLink {
	l := &laneLink{bps: bps, delay: delay, dst: dst}
	l.queue.init(q, s)
	l.wire.Init(s, func(w laneWire) {
		if l.flaps != w.flaps {
			l.faultDrops++
			return
		}
		l.dst.Receive(w.p)
	})
	l.tx.Init(s, func(struct{}) { l.transmitNext() })
	return l
}

func (l *laneLink) Receive(p *Packet) {
	if l.queue.enqueue(p) && !l.busy && !l.down {
		l.transmitNext()
	}
}

func (l *laneLink) SetDelay(d sim.Time) error      { l.delay = d; return nil }
func (l *laneLink) SetBandwidth(bps float64) error { l.bps = bps; return nil }
func (l *laneLink) SetDown(down bool) {
	if down == l.down {
		return
	}
	if l.down = down; down {
		l.flaps++
	} else if !l.busy {
		l.transmitNext()
	}
}

func (l *laneLink) transmitNext() {
	var p *Packet
	if !l.down {
		p = l.queue.dequeue()
	}
	if l.busy = p != nil; !l.busy {
		return
	}
	txDelay := sim.Time(float64(p.Size*8) / l.bps * float64(time.Second))
	l.wire.Push(txDelay+l.delay, laneWire{p, l.flaps})
	l.tx.Push(txDelay, struct{}{})
}

// anyLink is what the equivalence worlds need of either implementation.
type anyLink interface {
	Node
	SetDelay(sim.Time) error
	SetBandwidth(float64) error
	SetDown(bool)
}

func faultDropsOf(l anyLink) uint64 {
	if ll, ok := l.(*laneLink); ok {
		return ll.faultDrops
	}
	return l.(*Link).FaultDrops
}

type linkMaker func(s *sim.Scheduler, bps float64, delay sim.Time, q QueueDiscipline, dst Node) anyLink

func sharedLanes(s *sim.Scheduler, bps float64, delay sim.Time, q QueueDiscipline, dst Node) anyLink {
	return Must(NewLink(s, bps, delay, q, dst))
}

func ownLanes(s *sim.Scheduler, bps float64, delay sim.Time, q QueueDiscipline, dst Node) anyLink {
	return newLaneLink(s, bps, delay, q, dst)
}

// The menus the equivalence worlds draw link parameters and packet sizes
// from: small, so that many links push with the same delay and share a
// lane, and with delays that tie across links (8 Mb/s x 1000 B = 1 ms =
// a propagation delay on the menu).
var (
	equivRates  = []float64{8e6, 0.8e6, 100e6, 3.3e6}
	equivDelays = []sim.Time{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	equivSizes  = []int{1000, 1000, 40, 576, 1500}
)

// equivWorld is one topology built from one link implementation, with a
// tap on every link's far end.
type equivWorld struct {
	s     *sim.Scheduler
	links []anyLink
	entry []Node // where traffic of flow i is injected
	log   []string
}

// link makes link number len(w.links), delivering to dst through a tap
// that logs (time, link, flow, seq).
func (w *equivWorld) link(mk linkMaker, rng *rand.Rand, dst Node) anyLink {
	id := len(w.links)
	tap := NodeFunc(func(p *Packet) {
		w.log = append(w.log, fmt.Sprintf("%d link%d flow%d seq%d", w.s.Now(), id, p.Flow, p.Seq))
		dst.Receive(p)
	})
	l := mk(w.s, equivRates[rng.Intn(len(equivRates))], equivDelays[rng.Intn(len(equivDelays))],
		Must(NewDropTail(4+rng.Intn(12))), tap)
	w.links = append(w.links, l)
	return l
}

// buildChain strings 2-6 links in series; flow 0 enters at the first.
func buildChain(mk linkMaker, rng *rand.Rand) *equivWorld {
	w := &equivWorld{s: sim.NewScheduler(1)}
	var next Node = NodeFunc(func(*Packet) {})
	for n := 2 + rng.Intn(5); n > 0; n-- {
		next = w.link(mk, rng, next)
	}
	w.entry = []Node{next}
	return w
}

// buildDumbbell wires the Figure 4 shape by hand, so it can be made of
// either link: per-flow side links into a shared forward link, a demux,
// per-flow links to receivers that answer every packet with a 40-byte
// ACK, and the same again on the way back.
func buildDumbbell(mk linkMaker, rng *rand.Rand) *equivWorld {
	w := &equivWorld{s: sim.NewScheduler(1)}
	flows := 2 + rng.Intn(5)
	back, out := NewDemux(), NewDemux()
	reverse := w.link(mk, rng, back)
	forward := w.link(mk, rng, out)
	for i := 0; i < flows; i++ {
		back.Route(i, w.link(mk, rng, NodeFunc(func(*Packet) {})))
		ackPort := w.link(mk, rng, reverse)
		out.Route(i, w.link(mk, rng, NodeFunc(func(p *Packet) {
			ackPort.Receive(&Packet{Flow: p.Flow, Seq: p.Seq, Kind: Ack, Size: 40})
		})))
		w.entry = append(w.entry, w.link(mk, rng, forward))
	}
	return w
}

// drive issues a seeded script against the world — packets of mixed
// sizes offered in bursts, and SetDelay / SetBandwidth / SetDown fired on
// random links while packets are queued and in flight — then runs it
// dry. Every draw is made before the run, so both implementations see
// the same script.
func (w *equivWorld) drive(rng *rand.Rand) {
	at := func(t sim.Time, fn func()) {
		if err := w.s.NewTimer(fn).At(t); err != nil {
			panic(err)
		}
	}
	const horizon = 2 * time.Second
	for i := 0; i < 1500; i++ {
		flow := rng.Intn(len(w.entry))
		p := &Packet{Flow: flow, Seq: int64(i), Kind: Data, Size: equivSizes[rng.Intn(len(equivSizes))]}
		at(sim.Time(rng.Intn(4000))*(horizon/4000), func() { w.entry[flow].Receive(p) })
	}
	for i := 0; i < 60; i++ {
		l := w.links[rng.Intn(len(w.links))]
		t := sim.Time(rng.Int63n(int64(horizon)))
		switch rng.Intn(3) {
		case 0: // half the time a drop: later packets overtake those in flight
			d := equivDelays[rng.Intn(len(equivDelays))]
			at(t, func() { l.SetDelay(d) }) //nolint:errcheck // menu values are valid
		case 1:
			bps := equivRates[rng.Intn(len(equivRates))]
			at(t, func() { l.SetBandwidth(bps) }) //nolint:errcheck // menu values are valid
		case 2:
			at(t, func() { l.SetDown(true) })
			at(t+sim.Time(rng.Int63n(int64(100*time.Millisecond))), func() { l.SetDown(false) })
		}
	}
	w.s.RunAll()
}

// TestSharedLanesMatchPerLinkLanes is the order-equivalence property of
// the shared lanes: over random chains and dumbbells, the world built of
// Links and the one built of per-link-lane doubles deliver the same
// packets to the same places at the same instants in the same order,
// lose the same packets to flaps, and process the same number of events.
func TestSharedLanesMatchPerLinkLanes(t *testing.T) {
	builders := map[string]func(linkMaker, *rand.Rand) *equivWorld{"chain": buildChain, "dumbbell": buildDumbbell}
	for name, build := range builders {
		for seed := int64(1); seed <= 25; seed++ {
			run := func(mk linkMaker) *equivWorld {
				rng := rand.New(rand.NewSource(seed))
				w := build(mk, rng)
				w.drive(rng)
				return w
			}
			got, want := run(sharedLanes), run(ownLanes)
			if len(want.log) < 300 {
				t.Fatalf("%s seed %d: only %d deliveries; the script is not exercising the links", name, seed, len(want.log))
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("%s seed %d: %d deliveries, per-link lanes made %d", name, seed, len(got.log), len(want.log))
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("%s seed %d: delivery %d is %q, per-link lanes had %q", name, seed, i, got.log[i], want.log[i])
				}
			}
			for i := range want.links {
				if g, w := faultDropsOf(got.links[i]), faultDropsOf(want.links[i]); g != w {
					t.Fatalf("%s seed %d: link %d lost %d packets to flaps, per-link lanes lost %d", name, seed, i, g, w)
				}
			}
			if g, w := got.s.Processed(), want.s.Processed(); g != w {
				t.Fatalf("%s seed %d: %d events processed, per-link lanes processed %d", name, seed, g, w)
			}
		}
	}
}

// TestSharedLanesBoundedByDelaysPending sends 10^5 packets down one link
// with a different size, and so a different delay, on every one and the
// propagation delay changing under them. The world never holds more
// lanes than delays were pending at once — the packets on the wire plus
// the one serialization completion — however many delays it has seen.
func TestSharedLanesBoundedByDelaysPending(t *testing.T) {
	s := sim.NewScheduler(1)
	const packets = 100_000
	delivered := 0
	l := Must(NewLink(s, 100e6, time.Millisecond, Must(NewDropTail(8)), NodeFunc(func(*Packet) { delivered++ })))
	peakWire, offered, seen := 0, 0, map[sim.Time]bool{}
	s.SetProfileHook(1, func(sim.Time, uint64, int) {
		peakWire = max(peakWire, int(l.TxPackets)-delivered)
		if n := s.LaneCount(); n > peakWire+1 {
			t.Fatalf("%d lanes after at most %d packets on the wire at once, want one each plus the serialization lane", n, peakWire)
		}
	})
	var feed *sim.Timer
	feed = s.NewTimer(func() {
		size := 40 + offered%1461*7%1461 // consecutive packets differ by 7 bytes
		seen[l.TransmissionDelay(size)+l.Delay] = true
		l.Receive(&Packet{Seq: int64(offered), Size: size})
		l.SetDelay(time.Millisecond + sim.Time(offered%3)) //nolint:errcheck // positive
		if offered++; offered < packets {
			feed.Reset(125 * time.Microsecond) // longer than any packet serializes: nothing queues
		}
	})
	feed.Reset(0)
	s.RunAll()
	if delivered != packets || len(seen) < 1000 {
		t.Fatalf("delivered %d of %d packets with %d distinct delays; want all, and thousands", delivered, packets, len(seen))
	}
	if peakWire < 3 || peakWire > 16 {
		t.Fatalf("peak of %d packets on the wire; the link is not the short pipe this test means to fill", peakWire)
	}
}
