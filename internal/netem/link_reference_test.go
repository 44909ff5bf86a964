package netem_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// linkTrace is what one link did, read off its telemetry and a tap on
// its far end: when each packet was offered and whether the queue took
// it, the size of each packet sent, and when each reached the far end.
type linkTrace struct {
	offered   []sim.Time
	admitted  []bool
	sizes     []int
	delivered []sim.Time
}

// traceSink sorts a bus's queue and link events into one trace per
// instrumented link.
type traceSink map[string]*linkTrace

func (ts traceSink) trace(name string) *linkTrace {
	tr := ts[name]
	if tr == nil {
		tr = new(linkTrace)
		ts[name] = tr
	}
	return tr
}

func (ts traceSink) Emit(ev telemetry.Event) {
	switch {
	case ev.Comp == telemetry.CompQueue && (ev.Kind == telemetry.KEnqueue || ev.Kind == telemetry.KDrop || ev.Kind == telemetry.KMark):
		tr := ts.trace(ev.Src)
		tr.offered = append(tr.offered, ev.At)
		tr.admitted = append(tr.admitted, ev.Kind == telemetry.KEnqueue)
	case ev.Comp == telemetry.CompLink && ev.Kind == telemetry.KLinkTx:
		tr := ts.trace(ev.Src)
		tr.sizes = append(tr.sizes, int(ev.A))
	}
}

// watch instruments l under name and taps its far end.
func (ts traceSink) watch(s *sim.Scheduler, bus *telemetry.Bus, l *netem.Link, name string) {
	l.Instrument(bus, name)
	tr, dst := ts.trace(name), l.Dst
	l.Dst = netem.NodeFunc(func(p *netem.Packet) {
		tr.delivered = append(tr.delivered, s.Now())
		dst.Receive(p)
	})
}

// lindley is the reference link: a FIFO server whose i-th admitted
// packet departs at d_i = max(a_i, d_{i-1}) + s_i, behind a drop-tail
// buffer of limit packets that admits an arrival while fewer than limit
// of the packets still ahead of it wait behind the one in service. A
// departure at the arrival's own instant is ahead of it when the arrival
// fires first; arrivalFirst says it always does. Without it the order of
// such a tie is unknown, and either decision is accepted there. A limit
// of 0 checks no admission (RED decides at random), only departures.
//
// It returns the first point where the link's trace departs from the
// recursion, or "" if none does. Packets the link had not sent by the
// horizon end the check.
func lindley(tr *linkTrace, service func(size int) sim.Time, delay sim.Time, limit int, arrivalFirst bool, horizon sim.Time) string {
	var deps []sim.Time // departures of the admitted packets, in order
	for i, a := range tr.offered {
		if limit > 0 {
			ahead := len(deps) - sortedUpTo(deps, a) // departures after a
			tied := sortedUpTo(deps, a) - sortedBelow(deps, a)
			takeIfFirst := max(ahead+tied-1, 0) < limit
			takeIfSecond := max(ahead-1, 0) < limit
			if (takeIfFirst == takeIfSecond || arrivalFirst) && tr.admitted[i] != takeIfFirst {
				return fmt.Sprintf("arrival %d at %v: admitted %v, %d packets ahead, buffer %d", i, a, tr.admitted[i], ahead+tied, limit)
			}
		}
		if !tr.admitted[i] {
			continue
		}
		k := len(deps)
		if k == len(tr.sizes) {
			break // still queued at the horizon
		}
		last := sim.Time(0)
		if k > 0 {
			last = deps[k-1]
		}
		deps = append(deps, max(a, last)+service(tr.sizes[k]))
	}
	due := 0
	for _, d := range deps {
		if d+delay <= horizon {
			due++
		}
	}
	if len(tr.delivered) < due || len(tr.delivered) > len(deps) {
		return fmt.Sprintf("%d packets delivered, %d due by the horizon of %d sent", len(tr.delivered), due, len(deps))
	}
	for k, at := range tr.delivered {
		if want := deps[k] + delay; at != want {
			return fmt.Sprintf("packet %d delivered at %v, the recursion says %v", k, at, want)
		}
	}
	return ""
}

// sortedUpTo and sortedBelow count the elements of the ascending xs
// that are <= x and < x.
func sortedUpTo(xs []sim.Time, x sim.Time) int {
	n, _ := slices.BinarySearch(xs, x+1)
	return n
}

func sortedBelow(xs []sim.Time, x sim.Time) int {
	n, _ := slices.BinarySearch(xs, x)
	return n
}

// TestLinkMatchesLindleyReference offers one drop-tail link random
// arrival traces — mixed packet sizes, bursts at one instant, gaps longer
// than a serialization, buffers down to one packet — and checks every
// packet's admission and departure against the Lindley recursion. Each
// trace runs twice: as is, where the link reserves the completions that
// find the queue empty, and under a guard that never trips, where it
// pushes every completion. Both count one arrival, one delivery and one completion
// per packet sent.
func TestLinkMatchesLindleyReference(t *testing.T) {
	rates := []float64{8e6, 0.8e6, 100e6}
	delays := []sim.Time{0, time.Millisecond, 20 * time.Millisecond}
	limits := []int{1, 2, 3, 8, 100}
	sizes := []int{40, 576, 1000, 1500}
	total, dropped := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, hooked := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			s := sim.NewScheduler(seed)
			limit := limits[rng.Intn(len(limits))]
			l := netem.Must(netem.NewLink(s, rates[rng.Intn(len(rates))], delays[rng.Intn(len(delays))],
				netem.Must(netem.NewDropTail(limit)), netem.NodeFunc(func(*netem.Packet) {})))
			ts := traceSink{}
			ts.watch(s, telemetry.NewBus(ts), l, "link")
			// Arrivals are armed before the run, so one tied with a
			// completion fires first.
			serve := l.TransmissionDelay(1000)
			var at sim.Time
			const offered = 400
			for i := 0; i < offered; i++ {
				switch r := rng.Intn(10); {
				case r < 3: // a burst: the same instant
				case r < 6: // idle in between
					at += serve + sim.Time(rng.Int63n(int64(3*serve)))
				default:
					at += sim.Time(rng.Int63n(int64(serve)))
				}
				p := &netem.Packet{Seq: int64(i), Size: sizes[rng.Intn(len(sizes))]}
				if err := s.NewTimer(func() { l.Receive(p) }).At(at); err != nil {
					t.Fatal(err)
				}
			}
			if hooked {
				s.SetGuard(func(sim.Time, uint64) error { return nil })
			}
			s.RunAll()
			tr := ts["link"]
			if msg := lindley(tr, l.TransmissionDelay, l.Delay, limit, true, s.Now()); msg != "" {
				t.Fatalf("seed %d (hooked %v, buffer %d): %s", seed, hooked, limit, msg)
			}
			sent := uint64(len(tr.sizes))
			if want := offered + 2*sent; s.Processed() != want {
				t.Fatalf("seed %d (hooked %v): %d events processed, want %d (%d arrivals, %d packets sent)",
					seed, hooked, s.Processed(), want, offered, sent)
			}
			if !hooked {
				total += offered
				dropped += offered - int(sent)
			}
		}
	}
	if dropped == 0 || dropped > total/2 {
		t.Fatalf("the buffers dropped %d of %d packets; the traces do not exercise them", dropped, total)
	}
}

// TestGoldenSpecLinksMatchLindleyReference runs every shipped example
// scenario with its bottleneck links and the side links it can reach
// instrumented, and checks each FIFO link against the Lindley recursion:
// departures on all of them, admissions on the drop-tail ones. The world
// carries no scheduler hook, so its links reserve completions.
func TestGoldenSpecLinksMatchLindleyReference(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, path := range files {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := scenario.Build(spec.Seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := traceSink{}
		bus := telemetry.NewBus(ts)
		links := map[string]*netem.Link{"fwd": w.Net.ForwardLink(), "rev": w.Net.ReverseLink()}
		for i := 0; i < w.Net.Config().Flows; i++ {
			links[fmt.Sprintf("send%d", i)] = w.Net.SenderPort(i).(*netem.Link)
			links[fmt.Sprintf("ack%d", i)] = w.Net.ReceiverPort(i).(*netem.Link)
		}
		for name, l := range links {
			ts.watch(w.Sched, bus, l, name)
		}
		horizon := time.Duration(spec.Duration)
		w.Run(horizon)
		checked := 0
		for name, l := range links {
			limit := 0
			switch q := l.Queue().Discipline().(type) {
			case *netem.DropTail:
				limit = q.Limit()
			case *netem.DRRQueue:
				continue // not FIFO
			}
			tr := ts[name]
			if msg := lindley(tr, l.TransmissionDelay, l.Delay, limit, false, horizon); msg != "" {
				t.Errorf("%s, link %s: %s", filepath.Base(path), name, msg)
			}
			checked += len(tr.sizes)
		}
		if checked < 300 {
			t.Errorf("%s: only %d packets checked", filepath.Base(path), checked)
		}
	}
}
