package netem

import (
	"fmt"
	"io"

	"rrtcp/internal/sim"
)

// TapRecord is one observed packet passage.
type TapRecord struct {
	At     sim.Time
	Label  string
	Flow   int
	Kind   PacketKind
	Seq    int64
	AckNo  int64
	Size   int
	Rtx    bool
	SACKed int // number of SACK blocks carried
}

// String renders the record in a tcpdump-ish single line.
func (r TapRecord) String() string {
	if r.Kind == Ack {
		return fmt.Sprintf("%.6f %s flow=%d ack %d sack=%d", r.At.Seconds(), r.Label, r.Flow, r.AckNo, r.SACKed)
	}
	flag := ""
	if r.Rtx {
		flag = " rtx"
	}
	return fmt.Sprintf("%.6f %s flow=%d data %d(%d)%s", r.At.Seconds(), r.Label, r.Flow, r.Seq, r.Size, flag)
}

// Tap observes packets flowing through a point in the topology and
// forwards them untouched — the simulator's answer to tcpdump. Insert
// one anywhere a Node is accepted; records accumulate in memory and can
// optionally stream to a writer.
type Tap struct {
	sched *sim.Scheduler
	label string
	dst   Node

	// W, when non-nil, receives one formatted line per packet.
	W io.Writer

	// Limit bounds in-memory records (0 = unlimited).
	Limit int

	records []TapRecord
	// Seen counts all packets, even past Limit.
	Seen uint64
}

var _ Node = (*Tap)(nil)

// NewTap builds a tap labelled for trace output that forwards to dst.
func NewTap(sched *sim.Scheduler, label string, dst Node) *Tap {
	return &Tap{sched: sched, label: label, dst: dst}
}

// Receive implements Node.
func (t *Tap) Receive(p *Packet) {
	t.Seen++
	rec := TapRecord{
		At:     t.sched.Now(),
		Label:  t.label,
		Flow:   p.Flow,
		Kind:   p.Kind,
		Seq:    p.Seq,
		AckNo:  p.AckNo,
		Size:   p.Size,
		Rtx:    p.Retransmit,
		SACKed: len(p.SACK),
	}
	if t.Limit == 0 || len(t.records) < t.Limit {
		t.records = append(t.records, rec)
	}
	if t.W != nil {
		fmt.Fprintln(t.W, rec)
	}
	if t.dst != nil {
		t.dst.Receive(p)
	} else {
		p.Release()
	}
}

// Records returns a copy of the captured records.
func (t *Tap) Records() []TapRecord {
	out := make([]TapRecord, len(t.records))
	copy(out, t.records)
	return out
}

// SetDst redirects the tap's output node.
func (t *Tap) SetDst(n Node) { t.dst = n }
