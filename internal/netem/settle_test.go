package netem

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// A link whose packet starts serializing with nothing queued behind it
// reserves the completion's key instead of pushing it (transmitNext),
// and settles the completion itself once the run has passed the key
// (settle). The tests below drive one link to each edge of that rule
// twice: as is, and under a guard that never trips, where the link pushes
// every completion as a timer-per-event link would. Everything the link and
// the scheduler report must agree.

// settleLink is the link the edge tests drive: 8 Mb/s, so a 1000-byte
// packet serializes in 1 ms, 2 ms of propagation, and a RED queue whose
// average moves fast enough for an idle period to show.
func settleLink(s *sim.Scheduler, sink Node) (*Link, *REDQueue) {
	cfg := PaperREDConfig()
	cfg.QueueWeight, cfg.LinkBandwidthBps = 0.5, 8e6
	red := Must(NewRED(cfg, s.Rand()))
	return Must(NewLink(s, 8e6, 2*time.Millisecond, red, sink)), red
}

// settleRun is one run of an edge script: its scheduler and link, and a
// log of what happened, in order.
type settleRun struct {
	s    *sim.Scheduler
	l    *Link
	red  *REDQueue
	lazy bool
	log  []string
}

func (r *settleRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%v: ", r.s.Now())+fmt.Sprintf(format, args...))
}

// at arms a timer for fn at t.
func (r *settleRun) at(t sim.Time, fn func()) {
	if err := r.s.NewTimer(fn).At(t); err != nil {
		panic(err)
	}
}

// offer hands the link packet id.
func (r *settleRun) offer(id uint64) { r.l.Receive(pkt(id)) }

// state logs what the link reports. It reads no count of the
// scheduler's, which would have the link pay what it owes.
func (r *settleRun) state(what string) {
	q := r.l.Queue()
	r.logf("%s: tx %d faultDrops %d enq %d drops %d avg %.6f idle %v since %v",
		what, r.l.TxPackets, r.l.FaultDrops, q.Enqueued, q.Drops, r.red.AvgQueue(), r.red.idle, r.red.idleSince)
}

// counts logs the scheduler's counts too, read first: reading them has
// the link pay what it owes.
func (r *settleRun) counts(what string) {
	processed, pending := r.s.Processed(), r.s.Pending()
	r.state(what)
	r.logf("%s: processed %d pending %d", what, processed, pending)
}

// owing reports, in the run that reserves, whether the link owes its
// completion and whether the run has passed its key.
func (r *settleRun) owing() (owes, passed bool) {
	return r.l.owes, r.l.owes && r.s.Passed(r.l.owed)
}

// twinRuns runs script as is and under a guard that never trips, and
// fails unless both logs agree. The script asserts, in the run without
// the guard, that the link took the path under test.
func twinRuns(t *testing.T, script func(t *testing.T, r *settleRun)) {
	t.Helper()
	var logs [2][]string
	for i, lazy := range []bool{true, false} {
		r := &settleRun{s: sim.NewScheduler(1), lazy: lazy}
		r.l, r.red = settleLink(r.s, NodeFunc(func(p *Packet) { r.logf("delivered %d", pktID(p)) }))
		if !lazy {
			r.s.SetGuard(func(sim.Time, uint64, int) error { return nil })
		}
		script(t, r)
		r.counts("end")
		logs[i] = r.log
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("a link that reserves completions and one that pushes them differ:\n%v\n%v", logs[0], logs[1])
	}
}

const ms = time.Millisecond

// An arrival at exactly the completion's time fires before the
// completion when its own key is older (it waits in the queue for it)
// and after it when its key is newer (it finds the link idle).
func TestSettleArrivalAtTheReservedTime(t *testing.T) {
	for _, before := range []bool{true, false} {
		t.Run(fmt.Sprintf("before=%v", before), func(t *testing.T) {
			twinRuns(t, func(t *testing.T, r *settleRun) {
				arrive := func() {
					if owes, passed := r.owing(); r.lazy && (!owes || passed == before) {
						t.Errorf("at the arrival: owes %v, passed %v", owes, passed)
					}
					r.offer(2)
					r.state("after the arrival")
				}
				if before {
					r.at(ms, arrive) // armed before the completion is reserved
				}
				r.at(0, func() {
					r.offer(1) // its completion is reserved for 1 ms
					if !before {
						r.at(ms, arrive)
					}
				})
				r.s.RunAll()
			})
		})
	}
}

// The carrier may change before the completion is due or after it; a
// change after it settles the completion first, at a carrier state the
// link had when it was due. An outage wholly inside the window leaves
// the completion to find the link up.
func TestSettleAcrossSetDown(t *testing.T) {
	cases := map[string][][2]sim.Time{ // (down at, up at)
		"down before the completion": {{ms / 2, 3 * ms}},
		"down after the completion":  {{3 * ms / 2, 3 * ms}},
		"down and up inside":         {{ms / 4, ms / 2}},
		"two outages":                {{ms / 4, ms / 2}, {3 * ms / 4, 5 * ms}},
	}
	for name, outages := range cases {
		t.Run(name, func(t *testing.T) {
			twinRuns(t, func(t *testing.T, r *settleRun) {
				r.at(0, func() { r.offer(1) })
				for _, o := range outages {
					r.at(o[0], func() { r.l.SetDown(true); r.state("down") })
					r.at(o[1], func() { r.l.SetDown(false); r.state("up") })
				}
				r.at(2*ms, func() { r.offer(2); r.state("offered while down or after") })
				r.at(7*ms, func() { r.offer(3) })
				r.s.RunAll()
			})
		})
	}
}

// Renegotiating the rate or the delay while a completion is owed moves
// neither the completion nor the packet on the wire.
func TestSettleAcrossRenegotiation(t *testing.T) {
	twinRuns(t, func(t *testing.T, r *settleRun) {
		r.at(0, func() { r.offer(1) })
		r.at(ms/4, func() {
			if owes, _ := r.owing(); r.lazy && !owes {
				t.Error("no completion owed while the packet serializes")
			}
			r.l.SetBandwidth(0.8e6) //nolint:errcheck // valid
		})
		r.at(ms/2, func() { r.l.SetDelay(5 * ms) }) //nolint:errcheck // valid
		r.at(3*ms/4, func() { r.offer(2) })         // waits for the completion at 1 ms
		r.at(40*ms, func() { r.offer(3) })          // finds the link idle at the new rate
		r.s.RunAll()
	})
}

// A run that ends inside the window — at its horizon or by Stop — and
// is resumed gives the same counts at the pause and the same result.
func TestSettleAcrossPausedRuns(t *testing.T) {
	for _, stop := range []bool{false, true} {
		t.Run(fmt.Sprintf("stop=%v", stop), func(t *testing.T) {
			twinRuns(t, func(t *testing.T, r *settleRun) {
				r.at(0, func() { r.offer(1) })
				if stop {
					r.at(ms/2, r.s.Stop)
					r.s.RunAll()
				} else {
					r.s.Run(ms / 2)
				}
				r.counts("paused inside the window")
				r.offer(2) // between runs, while the completion is due
				r.s.Run(3 * ms / 2)
				r.counts("paused past the completion")
				r.offer(3)
				r.s.Run(10 * ms)
				r.counts("paused past the last completion")
				r.offer(4)
				r.s.RunAll()
			})
		})
	}
}

// Reading Processed or Pending from an event counts the completions the
// run has passed and those still due: the one passed is settled, the one
// due pushed.
func TestSettleCountsReadMidRun(t *testing.T) {
	twinRuns(t, func(t *testing.T, r *settleRun) {
		r.at(0, func() { r.offer(1) })
		r.at(3*ms/2, func() {
			if owes, passed := r.owing(); r.lazy && !(owes && passed) {
				t.Errorf("at 1.5 ms the completion at 1 ms is owed %v, passed %v", owes, passed)
			}
			r.counts("past the completion")
		})
		r.at(5*ms, func() { r.offer(2) })
		r.at(11*ms/2, func() {
			if owes, passed := r.owing(); r.lazy && !(owes && !passed) {
				t.Errorf("at 5.5 ms the completion at 6 ms is owed %v, passed %v", owes, passed)
			}
			r.counts("inside the window")
		})
		r.s.RunAll()
	})
}

// RED's idle period starts at the completion that found the queue
// empty, the instant the link reserved, not at the dequeue before it nor
// when the next arrival settles it: the average ages over exactly the
// seven packet times between.
func TestSettleMarksREDIdleAtTheReservedTime(t *testing.T) {
	twinRuns(t, func(t *testing.T, r *settleRun) {
		r.at(0, func() {
			for id := uint64(1); id <= 3; id++ {
				r.offer(id) // the third finds one packet queued: the average is 0.5
			}
		})
		r.at(10*ms, func() {
			if owes, passed := r.owing(); r.lazy && !(owes && passed) {
				t.Errorf("at 10 ms the completion at 3 ms is owed %v, passed %v", owes, passed)
			}
			r.offer(4)
			if want := 0.5 * math.Pow(0.5, 7) * 0.5; r.red.AvgQueue() != want {
				t.Errorf("RED average %v after idling from 3 ms to 10 ms, want %v", r.red.AvgQueue(), want)
			}
		})
		r.s.RunAll()
	})
}

// A world reset or rebuilt with a completion owed counts nothing of it:
// the scheduler reads zero, and the next world counts only its own
// events.
func TestSettleResetWithACompletionOwed(t *testing.T) {
	sink := NodeFunc(func(*Packet) {})
	fresh := func(s *sim.Scheduler) uint64 {
		d := Must(NewDumbbell(s, PaperDropTailConfig(1)))
		d.ConnectReceiver(0, sink)
		d.SenderPort(0).Receive(pkt(1))
		s.RunAll()
		return s.Processed()
	}
	want := fresh(sim.NewScheduler(1))

	s := sim.NewScheduler(1)
	d := Must(NewDumbbell(s, PaperDropTailConfig(1)))
	d.ConnectReceiver(0, sink)
	solo := Must(NewLink(s, 8e6, 0, nil, NodeFunc(func(*Packet) {})))
	d.SenderPort(0).Receive(pkt(1)) // outside a run: reserved, owed
	solo.Receive(pkt(2))
	if !d.side(0, senderLink).owes || !solo.owes {
		t.Fatal("the links owe no completion")
	}
	s.Reset(1)
	if n := s.Processed(); n != 0 || s.Pending() != 0 {
		t.Fatalf("reset scheduler: processed %d, pending %d, want 0 and 0", n, s.Pending())
	}
	if err := d.Rebuild(s, PaperDropTailConfig(1)); err != nil {
		t.Fatal(err)
	}
	if d.side(0, senderLink).owes {
		t.Fatal("a rebuilt link still owes the last world's completion")
	}
	d.ConnectReceiver(0, sink)
	d.SenderPort(0).Receive(pkt(1))
	s.RunAll()
	if got := s.Processed(); got != want {
		t.Fatalf("rebuilt world processed %d events, a fresh one %d", got, want)
	}
	if !solo.owes {
		t.Fatal("the stale link was paid by the next world")
	}
}
