package experiments

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/guard"
	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
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
// it.
type guardCase struct {
	name  string
	plan  bool // a fault plan flaps the bottleneck
	build func(w *scenario.World) (sim.Time, error)
}

// TestInfiniteGuardMovesNothing attaches a guard whose budget never
// trips to every golden scenario, every fig5 cell and a world under a
// fault plan of flaps and renegotiations, and requires each run to end
// exactly as it does unguarded. A guard reads the event count after
// every event, so with one attached the links push every serialization
// completion; without, they reserve the ones that find the queue empty.
// The relation is that the two paths cannot be told apart.
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
		cases = append(cases, guardCase{filepath.Base(path), false, func(w *scenario.World) (sim.Time, error) {
			return time.Duration(spec.Duration), w.Rebuild(spec.Seed, spec)
		}})
	}
	for _, drops := range []int{3, 6} {
		cfg := Figure5Config{Drops: drops}
		cfg.fillDefaults()
		for _, kind := range workload.Kinds() {
			cases = append(cases, guardCase{fmt.Sprintf("fig5 %s drops %d", kind, drops), false, func(w *scenario.World) (sim.Time, error) {
				if err := w.Rebuild(cfg.Seed, &scenario.Spec{
					Loss:        &scenario.LossSpec{Drops: []scenario.FlowDrops{{Packets: cfg.DropPacketNumbers()}}},
					SampleEvery: cfg.SampleEvery,
				}); err != nil {
					return 0, err
				}
				_, err := w.Install(workload.FlowSpec{
					Kind: kind, Bytes: int64(cfg.TransferPackets) * int64(tcp.DefaultMSS), Window: 18, InitialSSThresh: 9,
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
		cases = append(cases, guardCase{"faults " + kind.String(), true, func(w *scenario.World) (sim.Time, error) {
			if err := w.Rebuild(3, &scenario.Spec{
				Topology: &scenario.TopologySpec{Flows: 2, ForwardQueue: &scenario.QueueSpec{Type: "red", Limit: 25}},
				Flows: []scenario.FlowSpec{
					{Kind: kind.String(), Packets: 400, Window: 30},
					{Kind: "reno", Window: 20, StartAt: scenario.Duration(200 * time.Millisecond)},
				},
			}); err != nil {
				return 0, err
			}
			return 20 * time.Second, plan.Apply(w.Sched, w.Net, w.Sched.DeriveRand("faults"), nil)
		}})
	}

	for _, c := range cases {
		var ends [2]worldEnd
		for i, guarded := range []bool{false, true} {
			w := &scenario.World{}
			horizon, err := c.build(w)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if guarded {
				guard.Attach(w.Sched, guard.Limits{MaxEvents: 1 << 62}, nil)
			}
			w.Run(horizon)
			ends[i] = endOf(w)
		}
		if got, want := fmt.Sprintf("%+v", ends[1]), fmt.Sprintf("%+v", ends[0]); got != want {
			t.Errorf("%s: guarded run ended\n%s\nunguarded\n%s", c.name, got, want)
		}
		if ends[0].Processed < 500 {
			t.Errorf("%s: only %d events", c.name, ends[0].Processed)
		}
		if lost := ends[0].Links[0].FaultDrops + ends[0].Links[1].FaultDrops; c.plan != (lost > 0) {
			t.Errorf("%s: %d packets lost to flaps", c.name, lost)
		}
	}
}
