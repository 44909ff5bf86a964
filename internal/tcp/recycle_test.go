package tcp_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// recycleSpec is a two-flow Table 3 world of one variant: flow 0 loses
// a burst (one retransmission too), and flow 1, which delays its ACKs,
// loses three packets while flow 0 is still retransmitting its holes.
// Both flows finish well inside a minute.
func recycleSpec(kind workload.Kind, bus *telemetry.Bus) *scenario.Spec {
	return &scenario.Spec{
		Topology: &scenario.TopologySpec{Flows: 2},
		Loss: &scenario.LossSpec{Drops: []scenario.FlowDrops{
			{Flow: 0, Packets: []int64{30, 32, 34, 36}, Retransmits: []int64{32}},
			{Flow: 1, Packets: []int64{10, 12, 14}},
		}},
		Flows: []scenario.FlowSpec{
			{Kind: kind.String(), Packets: 120, Window: 24},
			{Kind: kind.String(), Packets: 120, Window: 24, DelayedAck: true},
		},
		Telemetry: bus,
	}
}

// connectionRun is everything a run of recycleSpec shows: each event on
// its bus, the scheduler's counts, and per flow the sender's and the
// receiver's counters and the trace's samples.
type connectionRun struct {
	Events    []telemetry.Event
	Processed uint64
	Now       time.Duration
	Flows     []string
	Samples   [][]telemetry.Event
}

// runRecycleSpec builds kind's world in w (Rebuild: fresh on a zero
// World) and runs it to the end with both traces recording.
func runRecycleSpec(t *testing.T, w *scenario.World, kind workload.Kind) connectionRun {
	t.Helper()
	ring := telemetry.NewRing(0)
	if err := w.Rebuild(7, recycleSpec(kind, telemetry.NewBus(ring))); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.Flows {
		f.Trace.Record()
	}
	w.Run(time.Minute)
	out := connectionRun{Events: ring.Events(), Processed: w.Sched.Processed(), Now: w.Sched.Now()}
	for _, f := range w.Flows {
		s, r := f.Sender, f.Receiver
		delay, done := s.TransferDelay()
		out.Flows = append(out.Flows, fmt.Sprintf("una %d rtx %d timeouts %d acks %d loss %v delay %v done %t | delivered %d segments %d dups %d ooo %d",
			s.SndUna(), s.Retransmits(), s.Timeouts(), s.Acks(), s.LossRate(), delay, done,
			r.Delivered, r.Segments, r.DupSegments, tcp.OutOfOrder(r)))
		out.Samples = append(out.Samples, f.Trace.Samples())
	}
	return out
}

// stopMidFlight builds kind's world in w and runs it only until flow 0's
// receiver holds out-of-order data, flow 1's receiver withholds an ACK
// on its armed timer and, for a SACK or FACK sender, flow 0 has
// retransmitted holes of its current recovery: the state a recycled
// connection must not carry into the next world.
func stopMidFlight(t *testing.T, w *scenario.World, kind workload.Kind) {
	t.Helper()
	if err := w.Rebuild(3, recycleSpec(kind, telemetry.NewBus(telemetry.NewRing(0)))); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.Flows {
		f.Trace.Record()
	}
	w.Run(0)
	needHoles := kind.NeedsSACKReceiver()
	for at := time.Duration(0); at < 20*time.Second; at += time.Millisecond {
		w.Sched.Run(at)
		f0, f1 := w.Flows[0], w.Flows[1]
		if tcp.OutOfOrder(f0.Receiver) > 0 && tcp.DelayingAck(f1.Receiver) &&
			(!needHoles || tcp.RetransmittedHoles(f0.Sender.Strategy()) > 0) {
			return
		}
	}
	t.Fatalf("%s: never stopped mid-flight with out-of-order data, a delayed ACK and retransmitted holes", kind)
}

// TestRecycledConnectionMatchesFresh runs each variant b on a world
// whose last run was variant a, stopped mid-flight, for every ordered
// pair: its flows, endpoints, strategies (kept when a is b) and traces
// are the old world's, Reset. The run must be the one b makes on a
// world built fresh, event for event and count for count.
func TestRecycledConnectionMatchesFresh(t *testing.T) {
	fresh := map[workload.Kind]connectionRun{}
	for _, b := range workload.Kinds() {
		fresh[b] = runRecycleSpec(t, &scenario.World{}, b)
		if len(fresh[b].Events) < 1000 {
			t.Fatalf("%s: only %d events", b, len(fresh[b].Events))
		}
	}
	for _, a := range workload.Kinds() {
		for _, b := range workload.Kinds() {
			var w scenario.World
			stopMidFlight(t, &w, a)
			got, want := runRecycleSpec(t, &w, b), fresh[b]
			if i := firstDifference(got.Events, want.Events); i >= 0 {
				t.Fatalf("%s after %s: event %d of %d differs from a fresh world's", b, a, i, len(want.Events))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %s:\n%+v\nfresh:\n%+v", b, a, got.Flows, want.Flows)
			}
		}
	}
}

// firstDifference returns the index of the first event where a and b
// differ, -1 if they are the same.
func firstDifference(a, b []telemetry.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
