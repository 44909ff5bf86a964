package netem

import (
	"strings"
	"testing"
	"time"

	"rrtcp/internal/sim"
)

func TestTapRecordsAndForwards(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	tap := NewTap(s, "r1->r2", sink)
	tap.Receive(&Packet{Flow: 0, Kind: Data, Seq: 1000, Len: 1000, Size: 1000})
	tap.Receive(&Packet{Flow: 0, Kind: Ack, AckNo: 2000, Size: 40})
	if len(sink.pkts) != 2 {
		t.Fatalf("forwarded %d packets, want 2", len(sink.pkts))
	}
	recs := tap.Records()
	if len(recs) != 2 || tap.Seen != 2 {
		t.Fatalf("recorded %d/%d", len(recs), tap.Seen)
	}
	if recs[0].Kind != Data || recs[0].Seq != 1000 {
		t.Fatalf("data record wrong: %+v", recs[0])
	}
	if recs[1].Kind != Ack || recs[1].AckNo != 2000 {
		t.Fatalf("ack record wrong: %+v", recs[1])
	}
}

func TestTapLimit(t *testing.T) {
	s := sim.NewScheduler(1)
	tap := NewTap(s, "x", nil)
	tap.Limit = 3
	for i := 0; i < 10; i++ {
		tap.Receive(&Packet{Kind: Data, Size: 1000, Len: 1000})
	}
	if len(tap.Records()) != 3 {
		t.Fatalf("recorded %d, want limit 3", len(tap.Records()))
	}
	if tap.Seen != 10 {
		t.Fatalf("seen %d, want 10", tap.Seen)
	}
}

func TestTapWriter(t *testing.T) {
	s := sim.NewScheduler(1)
	var sb strings.Builder
	tap := NewTap(s, "probe", nil)
	tap.W = &sb
	tap.Receive(&Packet{Flow: 3, Kind: Data, Seq: 5000, Len: 1000, Size: 1000, Retransmit: true})
	out := sb.String()
	for _, want := range []string{"probe", "flow=3", "data 5000", "rtx"} {
		if !strings.Contains(out, want) {
			t.Fatalf("line missing %q: %s", want, out)
		}
	}
}

func TestTapInline(t *testing.T) {
	// A tap inserted in front of the bottleneck sees every data packet
	// the sender emits.
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	link := Must(NewLink(s, 10e6, time.Millisecond, nil, sink))
	tap := NewTap(s, "pre-bottleneck", link)
	for i := 0; i < 5; i++ {
		tap.Receive(&Packet{Kind: Data, Size: 1000, Len: 1000})
	}
	s.RunAll()
	if len(sink.pkts) != 5 || tap.Seen != 5 {
		t.Fatalf("delivered %d, seen %d", len(sink.pkts), tap.Seen)
	}
}

func TestTapRecordString(t *testing.T) {
	rec := TapRecord{Label: "x", Flow: 1, Kind: Ack, AckNo: 7000, SACKed: 2}
	if !strings.Contains(rec.String(), "ack 7000") {
		t.Fatalf("ack string: %s", rec)
	}
}
