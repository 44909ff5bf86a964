package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/guard"
	"rrtcp/internal/invariant"
	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/workload"
)

// worldEnd is what a run leaves readable: each sender's end state, each
// reachable link's counts, the bottleneck queues' counts and RED average,
// and the scheduler's count and clock.
type worldEnd struct {
	Flows     []flowEnd
	Links     []linkEnd
	Queues    []queueEnd
	Processed uint64
	Now       sim.Time
}

type flowEnd struct {
	SndUna                int64
	Retransmits, Timeouts uint32
}

type linkEnd struct{ Tx, FaultDrops uint64 }

type queueEnd struct {
	Drops, Enqueued uint64
	Avg             float64
}

func endOf(w *scenario.World) worldEnd {
	end := worldEnd{Processed: w.Sched.Processed(), Now: w.Sched.Now()}
	for _, f := range w.Flows {
		end.Flows = append(end.Flows, flowEnd{f.Sender.SndUna(), f.Sender.Retransmits(), f.Sender.Timeouts()})
	}
	links := []*netem.Link{w.Net.ForwardLink(), w.Net.ReverseLink()}
	for _, l := range links {
		q := l.Queue()
		qe := queueEnd{Drops: q.Drops, Enqueued: q.Enqueued}
		if red, ok := q.Discipline().(*netem.REDQueue); ok {
			qe.Avg = red.AvgQueue()
		}
		end.Queues = append(end.Queues, qe)
	}
	for i := 0; i < w.Net.Config().Flows; i++ {
		links = append(links, w.Net.SenderPort(i).(*netem.Link), w.Net.ReceiverPort(i).(*netem.Link))
	}
	for _, l := range links {
		end.Links = append(end.Links, linkEnd{l.TxPackets, l.FaultDrops})
	}
	return end
}

// guardCase builds a world on w, ready to run, and says how long to run
// it. A non-nil bus is the world's telemetry: its bottleneck, its
// sampler and every flow publish to it.
type guardCase struct {
	name  string
	plan  bool // a fault plan flaps the bottleneck
	build func(w *scenario.World, bus *telemetry.Bus) (sim.Time, error)
}

// observed is s publishing to bus, gauges sampled every 10 ms; a nil
// bus leaves it silent.
func observed(s scenario.Spec, bus *telemetry.Bus) *scenario.Spec {
	s.Telemetry, s.SampleEvery = bus, 10*time.Millisecond
	return &s
}

// TestInfiniteGuardMovesNothing runs every golden scenario, every fig5
// cell and a world under a fault plan of flaps and renegotiations three
// ways, and requires each run to end exactly as the bare one does:
//   - with a guard whose budget never trips. A guard reads the event
//     count after every event, so with one attached the links push
//     every serialization completion; without, they reserve the ones
//     that find the queue empty. The two paths cannot be told apart.
//   - observed: NDJSON (to io.Discard), SpanSink, SeriesSink,
//     MetricsSink and a FlowTable on the world's bus, the 10 ms gauge
//     sampler on, and an invariant checker with its watchdog watching
//     every sender. Attaching a sink or the checker moves no result;
//     only Processed may differ, because the sampler's and the
//     watchdog's ticks are events too.
func TestInfiniteGuardMovesNothing(t *testing.T) {
	var cases []guardCase
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, path := range files {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, guardCase{filepath.Base(path), false, func(w *scenario.World, bus *telemetry.Bus) (sim.Time, error) {
			return time.Duration(spec.Duration), w.Rebuild(spec.Seed, observed(*spec, bus))
		}})
	}
	for _, drops := range []int{3, 6} {
		cfg := Figure5Config{Drops: drops}
		cfg.fillDefaults()
		for _, kind := range workload.Kinds() {
			cases = append(cases, guardCase{fmt.Sprintf("fig5 %s drops %d", kind, drops), false, func(w *scenario.World, bus *telemetry.Bus) (sim.Time, error) {
				if err := w.Rebuild(cfg.Seed, observed(scenario.Spec{
					Loss: &scenario.LossSpec{Drops: []scenario.FlowDrops{{Packets: cfg.DropPacketNumbers()}}},
				}, bus)); err != nil {
					return 0, err
				}
				_, err := w.Install(workload.FlowSpec{
					Kind: kind, Bytes: int64(cfg.TransferPackets) * int64(tcp.DefaultMSS), Window: 18, InitialSSThresh: 9,
					Telemetry: bus,
				})
				return 60 * time.Second, err
			}})
		}
	}
	plan := faults.PlanSpec{
		Flaps: []faults.FlapSpec{{At: faults.Duration(700 * time.Millisecond), Down: faults.Duration(300 * time.Millisecond)}},
		Renegotiations: []faults.RenegSpec{
			{At: faults.Duration(1500 * time.Millisecond), BandwidthBps: 0.4e6},
			{At: faults.Duration(2500 * time.Millisecond), Delay: faults.Duration(20 * time.Millisecond)},
			{At: faults.Duration(4 * time.Second), BandwidthBps: 1.2e6, Delay: faults.Duration(80 * time.Millisecond)},
		},
	}
	for _, kind := range []workload.Kind{workload.RR, workload.NewReno, workload.SACK} {
		cases = append(cases, guardCase{"faults " + kind.String(), true, func(w *scenario.World, bus *telemetry.Bus) (sim.Time, error) {
			if err := w.Rebuild(3, observed(scenario.Spec{
				Topology: &scenario.TopologySpec{Flows: 2, ForwardQueue: &scenario.QueueSpec{Type: "red", Limit: 25}},
				Flows: []scenario.FlowSpec{
					{Kind: kind.String(), Packets: 400, Window: 30},
					{Kind: "reno", Window: 20, StartAt: scenario.Duration(200 * time.Millisecond)},
				},
			}, bus)); err != nil {
				return 0, err
			}
			return 20 * time.Second, plan.Apply(w.Sched, w.Net, w.Sched.DeriveRand("faults"), bus)
		}})
	}

	const bare, guarded, watched = 0, 1, 2
	for _, c := range cases {
		var ends [3]worldEnd
		for arm := range ends {
			w := &scenario.World{}
			var bus *telemetry.Bus
			var metrics *telemetry.MetricsSink
			if arm == watched {
				metrics = telemetry.NewMetricsSink()
				bus = telemetry.NewBus(telemetry.NewNDJSONSink(io.Discard), telemetry.NewSpanSink(),
					telemetry.NewSeriesSink(), metrics, flowstats.New(flowstats.Config{}))
			}
			horizon, err := c.build(w, bus)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var checker *invariant.Checker
			switch arm {
			case guarded:
				guard.Attach(w.Sched, guard.Limits{MaxEvents: 1 << 62}, nil)
			case watched:
				checker = invariant.NewChecker(w.Sched, bus)
				bus.Subscribe(checker)
				for _, f := range w.Flows {
					checker.WatchSender(f.Sender)
				}
				if err := checker.StartWatchdog(0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			w.Run(horizon)
			ends[arm] = endOf(w)
			if checker != nil && len(checker.Violations()) > 0 {
				t.Errorf("%s: checker reported %v", c.name, checker.Violations())
			}
			if metrics != nil {
				// The observed arm must have observed: the bottleneck
				// queue (Rebuild), the first sender (Rebuild or Install),
				// the sampler and, under a plan, the flaps (plan.Apply)
				// all reached the bus.
				snap := metrics.R.Snapshot()
				want := []string{"queue.", "sender.0.data_sent", "sender.0.sample_"}
				if c.plan {
					want = append(want, ".flaps")
				}
				for _, name := range want {
					if !strings.Contains(snap, name) {
						t.Errorf("%s: observed run published no %s metric:\n%s", c.name, name, snap)
					}
				}
			}
		}
		if got, want := fmt.Sprintf("%+v", ends[guarded]), fmt.Sprintf("%+v", ends[bare]); got != want {
			t.Errorf("%s: guarded run ended\n%s\nunguarded\n%s", c.name, got, want)
		}
		ends[watched].Processed = ends[bare].Processed
		if got, want := fmt.Sprintf("%+v", ends[watched]), fmt.Sprintf("%+v", ends[bare]); got != want {
			t.Errorf("%s: observed run ended\n%s\nunobserved\n%s", c.name, got, want)
		}
		if ends[0].Processed < 500 {
			t.Errorf("%s: only %d events", c.name, ends[0].Processed)
		}
		if lost := ends[0].Links[0].FaultDrops + ends[0].Links[1].FaultDrops; c.plan != (lost > 0) {
			t.Errorf("%s: %d packets lost to flaps", c.name, lost)
		}
	}
}
