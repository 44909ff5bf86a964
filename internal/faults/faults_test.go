package faults

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// countNode records deliveries in arrival order.
type countNode struct {
	got []*netem.Packet
}

func (n *countNode) Receive(p *netem.Packet) { n.got = append(n.got, p) }

func pkt(seq int64, kind netem.PacketKind) *netem.Packet {
	return &netem.Packet{Kind: kind, Seq: seq, Size: 1000}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(1500 * time.Millisecond)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1.5s"` {
		t.Fatalf("marshal: %s", b)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %v -> %v", d, back)
	}
	if err := json.Unmarshal([]byte(`2000000`), &back); err != nil {
		t.Fatal(err)
	}
	if back != Duration(2*time.Millisecond) {
		t.Fatalf("nanosecond form: %v", back)
	}
	if err := json.Unmarshal([]byte(`"three furlongs"`), &back); err == nil {
		t.Fatal("nonsense duration accepted")
	}
}

func TestInjectorConstructorValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	dst := &countNode{}
	if _, err := NewReorderer(sched, rng, 1.5, 0, 0, dst); err == nil {
		t.Error("reorder rate > 1 accepted")
	}
	if _, err := NewReorderer(sched, rng, 0.1, 10, 5, dst); err == nil {
		t.Error("inverted reorder delay range accepted")
	}
	if _, err := NewReorderer(sched, nil, 0.1, 0, 5, dst); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewDuplicator(sched, rng, -0.1, dst); err == nil {
		t.Error("negative duplicate rate accepted")
	}
	if _, err := NewCorrupter(nil, rng, 0.1, dst); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewAckCompressor(sched, 0, 4, dst); err == nil {
		t.Error("zero ACK hold accepted")
	}
	if _, err := NewAckCompressor(sched, sim.Time(time.Millisecond), 1, dst); err == nil {
		t.Error("batch of one accepted")
	}
}

func TestReordererDelaysSubset(t *testing.T) {
	sched := sim.NewScheduler(1)
	dst := &countNode{}
	ro, err := NewReorderer(sched, rand.New(rand.NewSource(7)), 0.5,
		sim.Time(5*time.Millisecond), sim.Time(10*time.Millisecond), dst)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		ro.Receive(pkt(int64(i)*1000, netem.Data))
	}
	direct := len(dst.got)
	if ro.Reordered == 0 || direct == n {
		t.Fatalf("nothing reordered (%d direct, %d held)", direct, ro.Reordered)
	}
	if direct+int(ro.Reordered) != n {
		t.Fatalf("%d direct + %d reordered != %d", direct, ro.Reordered, n)
	}
	sched.RunAll()
	if len(dst.got) != n {
		t.Fatalf("%d delivered after drain, want %d", len(dst.got), n)
	}
}

func TestDuplicatorInjectsCopies(t *testing.T) {
	sched := sim.NewScheduler(1)
	dst := &countNode{}
	du, err := NewDuplicator(sched, rand.New(rand.NewSource(7)), 0.3, dst)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	originals := make(map[*netem.Packet]bool)
	for i := 0; i < n; i++ {
		p := pkt(int64(i)*1000, netem.Data)
		originals[p] = true
		du.Receive(p)
	}
	if du.Duplicated == 0 {
		t.Fatal("nothing duplicated")
	}
	if got := len(dst.got); got != n+int(du.Duplicated) {
		t.Fatalf("%d delivered, want %d", got, n+int(du.Duplicated))
	}
	// Every delivery is a distinct *Packet: a copy aliases neither its
	// original nor another copy.
	delivered := make(map[*netem.Packet]bool)
	fresh := 0
	for _, p := range dst.got {
		if delivered[p] {
			t.Fatalf("packet %v delivered twice through one pointer", p)
		}
		delivered[p] = true
		if !originals[p] {
			fresh++
		}
	}
	if fresh != int(du.Duplicated) {
		t.Fatalf("%d fresh packets, want %d (copies must not alias originals)", fresh, du.Duplicated)
	}
}

func TestCorrupterDropsSubset(t *testing.T) {
	sched := sim.NewScheduler(1)
	dst := &countNode{}
	co, err := NewCorrupter(sched, rand.New(rand.NewSource(7)), 0.3, dst)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		co.Receive(pkt(int64(i)*1000, netem.Data))
	}
	if co.Corrupted == 0 {
		t.Fatal("nothing corrupted")
	}
	if got := len(dst.got); got != n-int(co.Corrupted) {
		t.Fatalf("%d delivered, want %d", got, n-int(co.Corrupted))
	}
}

func TestAckCompressorBatchesAcks(t *testing.T) {
	sched := sim.NewScheduler(1)
	dst := &countNode{}
	ac, err := NewAckCompressor(sched, sim.Time(50*time.Millisecond), 3, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Data passes straight through.
	ac.Receive(pkt(0, netem.Data))
	if len(dst.got) != 1 {
		t.Fatal("data packet detained")
	}
	// Two ACKs are held; the third releases the batch early.
	ac.Receive(pkt(1000, netem.Ack))
	ac.Receive(pkt(2000, netem.Ack))
	if len(dst.got) != 1 || len(ac.held) != 2 {
		t.Fatalf("%d held, %d delivered; want 2 held", len(ac.held), len(dst.got))
	}
	ac.Receive(pkt(3000, netem.Ack))
	if len(dst.got) != 4 || len(ac.held) != 0 {
		t.Fatalf("batch not released at max: %d delivered, %d held", len(dst.got), len(ac.held))
	}
	if ac.Batches != 1 {
		t.Fatalf("%d batches, want 1", ac.Batches)
	}
	// A lone ACK is released by the hold timer, not a stale one.
	ac.Receive(pkt(4000, netem.Ack))
	sched.RunAll()
	if len(dst.got) != 5 || len(ac.held) != 0 {
		t.Fatalf("hold timer did not flush: %d delivered, %d held", len(dst.got), len(ac.held))
	}
}

// A duplicate is drawn from the pool its original came from, so a
// duplicating path allocates nothing once the pool is warm.
func TestDuplicatorCopiesComeFromThePool(t *testing.T) {
	var pool netem.PacketPool
	du, err := NewDuplicator(sim.NewScheduler(1), rand.New(rand.NewSource(7)), 1, netem.NodeFunc((*netem.Packet).Release))
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		p := pool.Get()
		p.Kind = netem.Ack
		p.SACK = append(p.SACK, netem.SACKBlock{Start: 1000, End: 2000})
		du.Receive(p)
	}
	send() // warm: two packets and their SACK arrays
	if avg := testing.AllocsPerRun(50, send); avg != 0 || du.Duplicated != 52 {
		t.Fatalf("%d duplicates allocated %v objects each, want 52 and 0", du.Duplicated, avg)
	}
	if pool.Gets != 2*du.Duplicated || pool.Gets-pool.Hits != 2 {
		t.Fatalf("pool served %d Gets with %d misses, want %d and 2", pool.Gets, pool.Gets-pool.Hits, 2*du.Duplicated)
	}
}

// Steady-state batching reuses two buffers: neither a max-triggered nor
// a timer-triggered release allocates, and a delivered batch leaves no
// packet pinned in the idle buffer.
func TestAckCompressorSteadyStateAllocatesNothing(t *testing.T) {
	sched := sim.NewScheduler(1)
	var pool netem.PacketPool
	delivered := 0
	dst := netem.NodeFunc(func(p *netem.Packet) {
		delivered++
		p.Release()
	})
	ac, err := NewAckCompressor(sched, sim.Time(10*time.Millisecond), 4, dst)
	if err != nil {
		t.Fatal(err)
	}
	ack := func() {
		p := pool.Get()
		p.Kind = netem.Ack
		ac.Receive(p)
	}
	rounds := 0
	round := func() {
		rounds++
		for i := 0; i < 4; i++ { // released at max
			ack()
		}
		for i := 0; i < 3; i++ { // released by the hold timer
			ack()
		}
		sched.Run(sched.Now() + sim.Time(time.Second))
	}
	round() // warm both buffers, the pool and the timer heap
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state ACK batching allocates %v objects per 2 batches, want 0", avg)
	}
	if delivered != 7*rounds || len(ac.held) != 0 || ac.Batches != uint64(2*rounds) {
		t.Fatalf("delivered %d ACKs in %d batches (%d held), want %d in %d", delivered, ac.Batches, len(ac.held), 7*rounds, 2*rounds)
	}
	for _, buf := range [][]*netem.Packet{ac.held[:cap(ac.held)], ac.spare[:cap(ac.spare)]} {
		for i, p := range buf {
			if p != nil {
				t.Fatalf("idle buffer slot %d still pins delivered packet %v", i, p)
			}
		}
	}
}

// An ACK that arrives while a batch is draining (the downstream node
// feeding the compressor from inside Receive) joins the next batch:
// every ACK is delivered exactly once, and a batch completed during
// the drain goes out at that point, exactly as with a fresh slice per
// batch.
func TestAckCompressorReentrantReceive(t *testing.T) {
	sched := sim.NewScheduler(1)
	var ac *AckCompressor
	var got []int64
	next := int64(100)
	dst := netem.NodeFunc(func(p *netem.Packet) {
		got = append(got, p.Seq)
		if p.Seq < 100 { // each original ACK triggers two more, so batches fill mid-drain
			next += 2
			ac.Receive(pkt(next-2, netem.Ack))
			ac.Receive(pkt(next-1, netem.Ack))
		}
	})
	var err error
	ac, err = NewAckCompressor(sched, sim.Time(10*time.Millisecond), 3, dst)
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 6; seq++ {
		ac.Receive(pkt(seq, netem.Ack))
	}
	sched.RunAll()
	want := referenceCompress(3, []int64{0, 1, 2, 3, 4, 5})
	if !slices.Equal(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	if ac.Batches < 5 {
		t.Fatalf("only %d batches: no release nested inside a drain", ac.Batches)
	}
	seen := map[int64]bool{}
	for _, seq := range got {
		if seen[seq] {
			t.Fatalf("ACK %d delivered twice: %v", seq, got)
		}
		seen[seq] = true
	}
	if len(got) != int(6+next-100) || len(ac.held) != 0 {
		t.Fatalf("%d ACKs delivered, %d held; want %d and 0", len(got), len(ac.held), 6+next-100)
	}
}

// referenceCompress is the compressor with a fresh slice per batch (the
// implementation the double buffer replaced) and the same re-entrant
// downstream as TestAckCompressorReentrantReceive; the hold timer is
// modelled by a final flush.
func referenceCompress(max int, arrivals []int64) []int64 {
	var held, out []int64
	next := int64(100)
	var receive func(seq int64)
	release := func() {
		batch := held
		held = nil
		for _, seq := range batch {
			out = append(out, seq)
			if seq < 100 {
				next += 2
				receive(next - 2)
				receive(next - 1)
			}
		}
	}
	receive = func(seq int64) {
		held = append(held, seq)
		if len(held) >= max {
			release()
		}
	}
	for _, seq := range arrivals {
		receive(seq)
	}
	for len(held) > 0 {
		release()
	}
	return out
}

func TestPlanValidate(t *testing.T) {
	bad := []PlanSpec{
		{Flaps: []FlapSpec{{At: Duration(-time.Second), Down: Duration(time.Second)}}},
		{Flaps: []FlapSpec{{At: 0, Down: 0}}},
		{Renegotiations: []RenegSpec{{At: 0}}},
		{Renegotiations: []RenegSpec{{At: 0, BandwidthBps: -1}}},
		{ReorderRate: 2},
		{ReorderRate: 0.1, ReorderMinDelay: Duration(10 * time.Millisecond), ReorderMaxDelay: Duration(time.Millisecond)},
		{CorruptRate: -0.5},
		{Ack: &AckSpec{Hold: 0, Max: 4}},
		{Ack: &AckSpec{Hold: Duration(time.Millisecond), Max: 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	var zero PlanSpec
	if err := zero.Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if zero.Active() {
		t.Error("zero plan claims to be active")
	}
}

func TestRandomPlanSpecDeterministic(t *testing.T) {
	cfg := netem.PaperDropTailConfig(1)
	horizon := sim.Time(60 * time.Second)
	a := RandomPlanSpec(rand.New(rand.NewSource(5)), horizon, cfg)
	b := RandomPlanSpec(rand.New(rand.NewSource(5)), horizon, cfg)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different plans:\n%s\n%s", ja, jb)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	// Across many seeds every generated plan must validate.
	for seed := int64(0); seed < 200; seed++ {
		p := RandomPlanSpec(rand.New(rand.NewSource(seed)), horizon, cfg)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
	}
}

func TestPlanApplyEmitsTelemetry(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewRing(64)
	bus := telemetry.NewBus(ring)
	d.Instrument(bus)
	p := PlanSpec{
		Flaps: []FlapSpec{{At: Duration(time.Second), Down: Duration(500 * time.Millisecond)}},
		Renegotiations: []RenegSpec{
			{At: Duration(2 * time.Second), BandwidthBps: 400 * 1000},
		},
	}
	if err := p.Apply(sched, d, sched.DeriveRand("faults"), bus); err != nil {
		t.Fatal(err)
	}
	sched.Run(sim.Time(3 * time.Second))
	var downs, ups, params int
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case telemetry.KLinkDown:
			downs++
		case telemetry.KLinkUp:
			ups++
		case telemetry.KLinkParam:
			params++
		}
	}
	if downs != 2 || ups != 2 || params != 2 {
		t.Fatalf("got %d downs, %d ups, %d params; want 2 each (both directions)", downs, ups, params)
	}
}
