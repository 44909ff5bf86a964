package netem

import (
	"fmt"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Demux routes packets to per-flow destinations; it models the routing
// step at a gateway fanning out to the receiver (or sender) hosts.
// Routing is a dense-slice lookup indexed by flow ID — flow IDs are
// small topology slot numbers — with a map fallback for any outliers.
type Demux struct {
	dst      []Node
	overflow map[int]Node
}

var _ Node = (*Demux)(nil)

// demuxDenseMax bounds how large a flow ID the dense table will grow
// for; anything larger routes through the overflow map.
const demuxDenseMax = 1 << 16

// NewDemux returns an empty router.
func NewDemux() *Demux { return &Demux{} }

// Route binds a flow ID to a destination node.
func (d *Demux) Route(flow int, dst Node) {
	if flow >= 0 && flow < demuxDenseMax {
		for len(d.dst) <= flow {
			d.dst = append(d.dst, nil)
		}
		d.dst[flow] = dst
		return
	}
	if d.overflow == nil {
		d.overflow = make(map[int]Node)
	}
	d.overflow[flow] = dst
}

// Receive implements Node; packets for unknown flows are dropped.
func (d *Demux) Receive(p *Packet) {
	if uint(p.Flow) < uint(len(d.dst)) {
		if dst := d.dst[p.Flow]; dst != nil {
			dst.Receive(p)
			return
		}
	} else if dst, ok := d.overflow[p.Flow]; ok {
		dst.Receive(p)
		return
	}
	p.Release()
}

// DumbbellConfig describes the Figure 4 topology: n sender hosts S_i
// and receiver hosts K_i joined by gateways R1 and R2 over a shared
// bottleneck.
type DumbbellConfig struct {
	// Flows is the number of S_i/K_i pairs.
	Flows int
	// BottleneckBps is the R1→R2 (and R2→R1) link rate in bits/s.
	BottleneckBps float64
	// BottleneckDelay is the one-way bottleneck propagation delay.
	BottleneckDelay sim.Time
	// SideBps and SideDelay configure each S_i→R1 and R2→K_i link.
	SideBps   float64
	SideDelay sim.Time
	// ForwardQueue supplies the discipline for the congested R1→R2
	// buffer. nil defaults to an 8-packet drop-tail (Table 3).
	ForwardQueue QueueDiscipline
	// ReverseQueue supplies the discipline for the R2→R1 ACK-path
	// buffer (e.g. a DRR fair queue for the §2.3 fair-share
	// experiment). nil defaults to a generous 1000-packet drop-tail:
	// ACKs are tiny.
	ReverseQueue QueueDiscipline
	// Loss, when non-nil, is inserted at R1 in front of the forward
	// bottleneck queue (where the paper injects artificial losses).
	Loss Node
}

// PaperDropTailConfig returns the Table 3 configuration for n flows:
// 8-packet bottleneck buffer, 0.8 Mbps bottleneck, 10 Mbps side links.
// The bottleneck one-way delay is 50 ms (see DESIGN.md §3 for why).
func PaperDropTailConfig(flows int) DumbbellConfig {
	return DumbbellConfig{
		Flows:           flows,
		BottleneckBps:   0.8e6,
		BottleneckDelay: 50 * time.Millisecond,
		SideBps:         10e6,
		SideDelay:       1 * time.Millisecond,
		ForwardQueue:    Must(NewDropTail(8)),
	}
}

// Dumbbell is the instantiated topology. Senders inject via
// SenderPort(i); receivers inject ACKs via ReceiverPort(i); final
// delivery goes to the nodes registered with ConnectSender /
// ConnectReceiver.
type Dumbbell struct {
	cfg   DumbbellConfig
	sched *sim.Scheduler

	// links is every link of the topology in one block: the two
	// bottleneck links, then each flow's four side links together.
	links    linkBlock
	forward  *Link  // R1 -> R2 (bottleneck, congested)
	reverse  *Link  // R2 -> R1 (bottleneck, ACK path)
	fwdDemux Demux  // at R2, to receivers
	revDemux Demux  // at R1, to senders
	routes   []Node // the two demuxes' tables, in one block

	// fwdEntry and revEntry are the first nodes on each bottleneck path
	// (the links themselves, or the head of an injector chain in front
	// of them); side links feed into these.
	fwdEntry Node
	revEntry Node

	// pool recycles the topology's packets; the endpoints installed on
	// the dumbbell allocate from and release to it.
	pool PacketPool
}

// The side links of a flow, in the order they sit in Dumbbell.links.
const (
	senderLink   = iota // S_i -> R1
	receiverLink        // R2 -> K_i
	ackLink             // K_i -> R2
	returnLink          // R1 -> S_i
	sideLinks
)

// side returns flow i's side link of the given kind. Indexing past the
// bottleneck links first makes every i outside the topology panic.
func (d *Dumbbell) side(i, kind int) *Link { return &d.links[2:][sideLinks*i+kind] }

// Pool returns the topology's packet pool. Endpoints wired onto the
// dumbbell draw their packets from it so steady-state traffic allocates
// nothing; every drop or consumption site releases back into it.
func (d *Dumbbell) Pool() *PacketPool { return &d.pool }

// NewDumbbell wires up the topology on the given scheduler: Rebuild on
// a zero Dumbbell.
func NewDumbbell(sched *sim.Scheduler, cfg DumbbellConfig) (*Dumbbell, error) {
	d := new(Dumbbell)
	if err := d.Rebuild(sched, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Rebuild wires the topology cfg describes on sched in place of the one
// d held. sched must be new or Reset since d's topology last ran on it.
// The result is what NewDumbbell(sched, cfg) builds, laid out in the
// memory d already has — its link block, side-link rings, routing table
// and packet slabs, re-carved and zeroed — so rebuilding a topology of
// the same shape allocates nothing. Every packet and link of the previous
// topology is invalid afterwards. On error d is left unchanged.
func (d *Dumbbell) Rebuild(sched *sim.Scheduler, cfg DumbbellConfig) error {
	if cfg.Flows < 1 {
		return fmt.Errorf("netem: dumbbell needs at least one flow, got %d", cfg.Flows)
	}
	if err := validateLinkParams(cfg.BottleneckBps, cfg.BottleneckDelay); err != nil {
		return fmt.Errorf("bottleneck: %w", err)
	}
	if err := validateLinkParams(cfg.SideBps, cfg.SideDelay); err != nil {
		return fmt.Errorf("side link: %w", err)
	}

	// Everything the flow count sizes is one block each: the links (with
	// their queues and drop-tails inside them), the side links' first
	// packet rings, the two routing tables. A rebuild keeps the blocks
	// it has room in.
	n := cfg.Flows
	links := d.links[:cap(d.links)]
	for i := range links {
		links[i].clear()
	}
	if len(links) < 2+sideLinks*n {
		links = make(linkBlock, 2+sideLinks*n)
	}
	routes := d.routes[:cap(d.routes)]
	clear(routes)
	if len(routes) < 2*n {
		routes = make([]Node, 2*n)
	}
	d.pool.reset()
	*d = Dumbbell{
		cfg:      cfg,
		sched:    sched,
		links:    links[:2+sideLinks*n],
		fwdDemux: Demux{dst: routes[:n:n]},
		revDemux: Demux{dst: routes[n : 2*n : 2*n]},
		routes:   routes,
		pool:     d.pool,
	}
	sched.AddDebtor(&d.links)
	d.forward, d.reverse = &d.links[0], &d.links[1]
	d.forward.init(sched, cfg.BottleneckBps, cfg.BottleneckDelay, cfg.ForwardQueue, 8, &d.fwdDemux)
	d.reverse.init(sched, cfg.BottleneckBps, cfg.BottleneckDelay, cfg.ReverseQueue, 1000, &d.revDemux)
	d.revEntry = d.reverse

	// Entry into the forward bottleneck, optionally via a loss module.
	d.fwdEntry = d.forward
	if cfg.Loss != nil {
		if setter, ok := cfg.Loss.(DstSetter); ok {
			setter.SetDst(d.forward)
		}
		d.fwdEntry = cfg.Loss
	}

	var rings []*Packet
	for i := 0; i < n; i++ {
		d.fwdDemux.Route(i, d.side(i, receiverLink))
		d.revDemux.Route(i, d.side(i, returnLink))
		for kind, dst := range [sideLinks]Node{senderLink: d.fwdEntry, ackLink: d.revEntry} {
			l := d.side(i, kind)
			if l.fifo.fifo.buf == nil {
				if len(rings) == 0 {
					rings = make([]*Packet, sideLinks*(n-i)*sideRing)
				}
				l.fifo.fifo.buf, rings = rings[:sideRing:sideRing], rings[sideRing:]
			}
			l.init(sched, cfg.SideBps, cfg.SideDelay, nil, 1000, dst)
		}
	}
	return nil
}

// sideRing is the ring a side link's drop-tail starts with, in packets;
// one that fills grows on its own.
const sideRing = 8

// SenderPort returns the node into which sender i transmits data.
func (d *Dumbbell) SenderPort(i int) Node { return d.side(i, senderLink) }

// ReceiverPort returns the node into which receiver i transmits ACKs.
func (d *Dumbbell) ReceiverPort(i int) Node { return d.side(i, ackLink) }

// ConnectReceiver registers the endpoint that consumes flow i's data
// packets at host K_i.
func (d *Dumbbell) ConnectReceiver(i int, n Node) { d.side(i, receiverLink).Dst = n }

// ConnectSender registers the endpoint that consumes flow i's ACKs back
// at host S_i.
func (d *Dumbbell) ConnectSender(i int, n Node) { d.side(i, returnLink).Dst = n }

// ForwardEntry returns the first node on the forward bottleneck path —
// the forward link itself, or the head of whatever injector chain has
// been pushed in front of it.
func (d *Dumbbell) ForwardEntry() Node { return d.fwdEntry }

// SetForwardEntry interposes n at the head of the forward bottleneck
// path and rewires every sender-side link to feed it. Fault injectors
// chain themselves in with this: n should ultimately deliver into the
// previous ForwardEntry.
func (d *Dumbbell) SetForwardEntry(n Node) {
	d.fwdEntry = n
	for i := 0; i < d.cfg.Flows; i++ {
		d.side(i, senderLink).Dst = n
	}
}

// ReverseEntry returns the first node on the reverse (ACK) bottleneck
// path.
func (d *Dumbbell) ReverseEntry() Node { return d.revEntry }

// SetReverseEntry interposes n at the head of the reverse bottleneck
// path, rewiring every receiver-side ACK link to feed it.
func (d *Dumbbell) SetReverseEntry(n Node) {
	d.revEntry = n
	for i := 0; i < d.cfg.Flows; i++ {
		d.side(i, ackLink).Dst = n
	}
}

// BottleneckQueue exposes the congested R1→R2 queue for tracing.
func (d *Dumbbell) BottleneckQueue() *Queue { return d.forward.Queue() }

// ForwardLink exposes the bottleneck link for throughput accounting.
func (d *Dumbbell) ForwardLink() *Link { return d.forward }

// ReverseLink exposes the ACK-path bottleneck link.
func (d *Dumbbell) ReverseLink() *Link { return d.reverse }

// Config returns the configuration used to build the topology.
func (d *Dumbbell) Config() DumbbellConfig { return d.cfg }

// Instrument attaches the telemetry bus to the contended elements of
// the topology: the forward (data) and reverse (ACK) bottleneck links
// with their queues, named "fwd" and "rev", plus any installed loss
// module, named "inject". The uncongested side links are left silent —
// they never drop by construction, and instrumenting them would multiply
// event volume without adding signal.
func (d *Dumbbell) Instrument(bus *telemetry.Bus) {
	d.forward.Instrument(bus, "fwd")
	d.reverse.Instrument(bus, "rev")
	if inst, ok := d.cfg.Loss.(LossInstrumenter); ok {
		inst.Instrument(d.sched, bus, "inject")
	}
}
