package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// rebuildShapes are worlds of different shapes, in the order one World
// is rebuilt through them: Table 3 with a SeqLoss plan, 20 flows on RED
// with a sampled bus, one flow behind a Gilbert channel, 8 flows on a
// DRR bottleneck with a reverse flow, and Table 3 again.
var rebuildShapes = []struct {
	name, spec string
	sampled    bool
}{
	{"table3", `{"duration":"30s","loss":{"drops":[{"flow":0,"packets":[60,61,63],"retransmits":[61]}]},"flows":[{"kind":"newreno","packets":150,"window":18,"ssthresh":9}]}`, false},
	{"red20", `{"seed":2,"duration":"10s","topology":{"flows":20,"forwardQueue":{"type":"red"}},"flows":[` +
		strings.TrimSuffix(strings.Repeat(`{"kind":"rr","window":30},{"kind":"sack","window":30,"startAt":"250ms"},`+
			`{"kind":"tahoe","window":20,"startAt":"500ms","packets":400},{"kind":"fack","window":30},`, 5), ",") + `]}`, true},
	{"gilbert1", `{"seed":5,"duration":"30s","topology":{"bottleneckBps":10e6,"forwardQueue":{"type":"droptail","limit":1000}},"loss":{"rate":0.02,"burstLength":3},"flows":[{"kind":"sack","window":64}]}`, false},
	{"drr8", `{"seed":3,"duration":"20s","topology":{"flows":8,"forwardQueue":{"type":"drr","limit":30},"reverseQueue":{"type":"droptail","limit":6}},"flows":[` +
		`{"kind":"rr","packets":300,"window":18},{"kind":"reno","reverse":true,"window":18,"startAt":"100ms"},{"kind":"newreno","window":24},{"kind":"rightedge","window":24},` +
		`{"kind":"linkung","window":24},{"kind":"sack6675","window":24},{"kind":"rr","window":24,"delayedAck":true},{"kind":"tahoe","window":24,"smoothStart":true}]}`, false},
	{"table3 again", `{"duration":"30s","loss":{"drops":[{"flow":0,"packets":[60,61,63],"retransmits":[61]}]},"flows":[{"kind":"newreno","packets":150,"window":18,"ssthresh":9}]}`, false},
}

// worldOutcome is what a run of a world shows: every event on its bus,
// the scheduler's counts, each flow's end state, the bottleneck's and
// the pool's counters.
type worldOutcome struct {
	Events                 []telemetry.Event
	Processed              uint64
	Now                    time.Duration
	HighWater, Lanes       int
	Flows                  [][3]int64
	Drops, Enqueued        uint64
	PoolGets, PoolHits, Tx uint64
}

// runShape builds a shape's world — by rebuilding w when it is non-nil,
// else with Build — runs it and reads its outcome.
func runShape(t *testing.T, w *World, spec string, sampled bool) worldOutcome {
	t.Helper()
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewRing(0)
	s.Telemetry = telemetry.NewBus(ring)
	if sampled {
		s.SampleEvery = 100 * time.Millisecond
	}
	seed := max(s.Seed, 1)
	if w == nil {
		built, err := Build(seed, s)
		if err != nil {
			t.Fatal(err)
		}
		w = &built
	} else if err := w.Rebuild(seed, s); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Duration(s.Duration))
	out := worldOutcome{
		Events: ring.Events(), Processed: w.Sched.Processed(), Now: w.Sched.Now(),
		HighWater: w.Sched.HeapHighWater(), Lanes: w.Sched.LaneCount(),
		Drops: w.Net.BottleneckQueue().Drops, Enqueued: w.Net.BottleneckQueue().Enqueued,
		PoolGets: w.Net.Pool().Gets, PoolHits: w.Net.Pool().Hits, Tx: w.Net.ForwardLink().TxPackets,
	}
	for _, f := range w.Flows {
		out.Flows = append(out.Flows, [3]int64{f.Sender.SndUna(), int64(f.Sender.Retransmits()), int64(f.Sender.Acks())})
	}
	return out
}

// TestRebuildMatchesBuild rebuilds one World through worlds of different
// shapes — more flows, fewer, other disciplines, loss models and
// telemetry — and each runs exactly as the world Build makes for its
// spec: the same event stream, counts and end states.
func TestRebuildMatchesBuild(t *testing.T) {
	var w World
	for i, shape := range rebuildShapes {
		want := runShape(t, nil, shape.spec, shape.sampled)
		if len(want.Events) < 1000 {
			t.Fatalf("%s: only %d events on the bus", shape.name, len(want.Events))
		}
		got := runShape(t, &w, shape.spec, shape.sampled)
		if j := firstDifference(got.Events, want.Events); j >= 0 {
			t.Fatalf("world %d (%s), rebuilt: event stream diverges from Build's at event %d of %d", i, shape.name, j, len(want.Events))
		}
		got.Events, want.Events = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("world %d (%s), rebuilt:\n%+v\nBuild:\n%+v", i, shape.name, got, want)
		}
	}
}

// TestRebuildAllocations: rebuilding a used one-slot Table 3 world
// allocates nothing in sim or netem — the scheduler, link block, side
// rings, routes and packet slabs of the world before are all reused —
// and World.Rebuild adds nothing: its forward queue is the link's own
// drop-tail, not one made and discarded each time.
func TestRebuildAllocations(t *testing.T) {
	w, err := Build(1, &Spec{Flows: []FlowSpec{{Kind: "rr", Packets: 200, Window: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second)
	if !w.Flows[0].Sender.Done() {
		t.Fatal("the flow did not finish")
	}
	cfg := netem.PaperDropTailConfig(1)
	cfg.ForwardQueue = nil // the forward link's own 8-packet drop-tail
	release := netem.NodeFunc((*netem.Packet).Release)
	traffic := func() { // a burst through every link, as a flow's would be
		d := w.Net
		d.ConnectReceiver(0, release)
		d.ConnectSender(0, release)
		for k := 0; k < 40; k++ {
			data, ack := d.Pool().Get(), d.Pool().Get()
			data.Kind, data.Size, ack.Kind, ack.Size = netem.Data, 1000, netem.Ack, 40
			d.SenderPort(0).Receive(data)
			d.ReceiverPort(0).Receive(ack)
		}
		w.Sched.RunAll()
	}
	got := testing.AllocsPerRun(10, func() {
		w.Sched.Reset(2)
		if err := w.Net.Rebuild(w.Sched, cfg); err != nil {
			t.Fatal(err)
		}
		traffic()
	})
	if got != 0 {
		t.Fatalf("rebuilding a used Table 3 world and running a burst allocates %.0f times, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := w.Rebuild(2, &Spec{}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("World.Rebuild of Table 3 allocates %.0f times, want 0", got)
	}
}

// TestRebuiltWorldInstallsWithoutAllocating: a world rebuilt to the
// shape it had, with the same variants in the same slots, installs
// every flow in the memory of the flow before — its endpoints, trace
// holder and strategy, with their storage — so rebuilding it costs the
// same at 1, 4, 16 and 64 flows, as NewDumbbell does
// (TestNewDumbbellAllocationsIndependentOfFlows).
func TestRebuiltWorldInstallsWithoutAllocating(t *testing.T) {
	rebuild := func(n int) float64 {
		spec := &Spec{Topology: &TopologySpec{Flows: n}}
		for i := 0; i < n; i++ {
			kind := workload.Kinds()[i%len(workload.Kinds())]
			spec.Flows = append(spec.Flows, FlowSpec{Kind: kind.String(), Packets: 60, Window: 20, DelayedAck: i%2 == 1})
		}
		var w World
		if err := w.Rebuild(1, spec); err != nil {
			t.Fatal(err)
		}
		w.Run(30 * time.Second) // grows the scoreboards, out-of-order buffers and delayed-ACK timers
		return testing.AllocsPerRun(5, func() {
			if err := w.Rebuild(2, spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := rebuild(1)
	for _, n := range []int{4, 16, 64} {
		if got := rebuild(n); got != one {
			t.Fatalf("rebuilding a %d-flow world allocates %.0f times, a 1-flow world %.0f: want the same", n, got, one)
		}
	}
	if one != 0 {
		t.Fatalf("rebuilding a 1-flow world allocates %.0f times, want 0", one)
	}
}

// firstDifference returns the index of the first event where a and b
// differ, -1 if they are the same. Attributes compare bit for bit (a
// gauge sample may be NaN).
func firstDifference(a, b []telemetry.Event) int {
	type bitsEvent struct {
		ev   telemetry.Event
		a, b uint64
	}
	bits := func(ev telemetry.Event) bitsEvent {
		x := bitsEvent{a: math.Float64bits(ev.A), b: math.Float64bits(ev.B)}
		ev.A, ev.B = 0, 0
		x.ev = ev
		return x
	}
	for i := range min(len(a), len(b)) {
		if bits(a[i]) != bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
