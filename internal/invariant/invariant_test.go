package invariant

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
)

// fakeSender is a scriptable Probe: tests mutate its fields and emit
// events to drive the checker.
type fakeSender struct {
	flow     int
	done     bool
	una, nxt int64
	max      int64
	cwnd     float64
	ssthresh float64
	window   int
	total    int64
	backoff  uint
	armed    bool
}

func (f *fakeSender) Flow() int          { return f.flow }
func (f *fakeSender) Done() bool         { return f.done }
func (f *fakeSender) SndUna() int64      { return f.una }
func (f *fakeSender) SndNxt() int64      { return f.nxt }
func (f *fakeSender) MaxSeq() int64      { return f.max }
func (f *fakeSender) Cwnd() float64      { return f.cwnd }
func (f *fakeSender) Ssthresh() float64  { return f.ssthresh }
func (f *fakeSender) Window() int        { return f.window }
func (f *fakeSender) FlightPackets() int { return int(f.nxt-f.una) / 1000 }
func (f *fakeSender) TotalBytes() int64  { return f.total }
func (f *fakeSender) RTOBackoff() uint   { return f.backoff }
func (f *fakeSender) TimerArmed() bool   { return f.armed }

var _ Probe = (*fakeSender)(nil)

// fakeRecovery is a scriptable RecoveryProbe.
type fakeRecovery struct {
	recovery, probe bool
	actnum, ndup    int
}

func (f *fakeRecovery) InRecovery() bool { return f.recovery }
func (f *fakeRecovery) InProbe() bool    { return f.probe }
func (f *fakeRecovery) Actnum() int      { return f.actnum }
func (f *fakeRecovery) Ndup() int        { return f.ndup }

func healthyFake() *fakeSender {
	return &fakeSender{
		una: 10 * 1000, nxt: 14 * 1000, max: 20 * 1000,
		cwnd: 4, ssthresh: 8, window: 24, total: tcp.Infinite,
		armed: true,
	}
}

// rig wires a checker to a bus and a fake sender.
func rig(t *testing.T) (*sim.Scheduler, *Checker, *fakeSender) {
	t.Helper()
	sched := sim.NewScheduler(1)
	bus := telemetry.NewBus()
	c := NewChecker(sched, bus)
	bus.Subscribe(c)
	f := healthyFake()
	c.Watch(f)
	return sched, c, f
}

func emit(c *Checker, kind telemetry.Kind) {
	c.Emit(telemetry.Event{Comp: telemetry.CompSender, Kind: kind, Flow: 0})
}

func rules(c *Checker) []string {
	var out []string
	for _, v := range c.Violations() {
		out = append(out, v.Rule)
	}
	return out
}

func wantRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("rule %q not reported; got %v", rule, rules(c))
}

func TestHealthyStateIsQuiet(t *testing.T) {
	_, c, _ := rig(t)
	for _, k := range []telemetry.Kind{telemetry.KSend, telemetry.KAck, telemetry.KCwnd} {
		emit(c, k)
	}
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("healthy sender flagged: %v", got)
	}
}

func TestSeqOrderRules(t *testing.T) {
	_, c, f := rig(t)
	f.nxt = f.una - 1000 // nxt behind una
	emit(c, telemetry.KAck)
	wantRule(t, c, "seq-order")
}

func TestUnaRegress(t *testing.T) {
	_, c, f := rig(t)
	emit(c, telemetry.KAck)
	f.una -= 1000
	f.nxt = f.una + 4000
	emit(c, telemetry.KAck)
	wantRule(t, c, "una-regress")
}

func TestSeqOverrun(t *testing.T) {
	_, c, f := rig(t)
	f.total = 15 * 1000
	f.max = 16 * 1000
	emit(c, telemetry.KSend)
	wantRule(t, c, "seq-overrun")
}

func TestWindowBounds(t *testing.T) {
	_, c, f := rig(t)
	f.cwnd = float64(f.window) + 1
	emit(c, telemetry.KCwnd)
	wantRule(t, c, "cwnd-bounds")
	f.cwnd = 4
	f.ssthresh = 1
	emit(c, telemetry.KCwnd)
	wantRule(t, c, "ssthresh-floor")
}

func TestFlightRules(t *testing.T) {
	_, c, f := rig(t)
	// Overshoot without any loss episode: flagged.
	f.nxt = f.una + int64(f.window+1)*1000
	f.max = f.nxt
	emit(c, telemetry.KSend)
	wantRule(t, c, "flight-window")

	// Same overshoot during a loss episode: tolerated up to 2x window.
	_, c2, f2 := rig(t)
	emit(c2, telemetry.KDupAck)
	f2.nxt = f2.una + int64(f2.window+1)*1000
	f2.max = f2.nxt
	emit(c2, telemetry.KSend)
	if len(c2.Violations()) != 0 {
		t.Fatalf("dup-ACK overshoot flagged: %v", rules(c2))
	}
	// But past the hard sanity bound it is not.
	f2.nxt = f2.una + int64(2*f2.window+1)*1000
	f2.max = f2.nxt
	emit(c2, telemetry.KSend)
	wantRule(t, c2, "flight-bounds")
}

func TestBackoffNeedsTimeout(t *testing.T) {
	_, c, f := rig(t)
	f.backoff = 1
	emit(c, telemetry.KAck)
	wantRule(t, c, "backoff-no-timeout")

	// With the timeout observed at the same instant, growth is fine.
	_, c2, f2 := rig(t)
	emit(c2, telemetry.KTimeout)
	f2.backoff = 1
	emit(c2, telemetry.KRetransmit)
	for _, v := range c2.Violations() {
		if v.Rule == "backoff-no-timeout" {
			t.Fatalf("legitimate backoff flagged: %v", v)
		}
	}
}

func TestRetransmitRules(t *testing.T) {
	_, c, f := rig(t)
	c.Emit(telemetry.Event{Comp: telemetry.CompSender, Kind: telemetry.KRetransmit, Flow: 0, Seq: f.una - 1000})
	wantRule(t, c, "rtx-below-una")
	c.Emit(telemetry.Event{Comp: telemetry.CompSender, Kind: telemetry.KRetransmit, Flow: 0, Seq: f.max})
	wantRule(t, c, "rtx-unsent")
}

func TestActnumRules(t *testing.T) {
	_, c, f := rig(t)
	r := &fakeRecovery{}
	c.WatchRecovery(f.flow, r)

	// Nonzero actnum outside recovery.
	r.actnum = 3
	emit(c, telemetry.KAck)
	wantRule(t, c, "actnum-open")

	// Actnum beyond the advertised window.
	_, c2, f2 := rig(t)
	r2 := &fakeRecovery{recovery: true, actnum: f2.window + 1}
	c2.WatchRecovery(f2.flow, r2)
	emit(c2, telemetry.KAck)
	wantRule(t, c2, "actnum-bounds")
}

func TestRecoveryCwndFrozen(t *testing.T) {
	_, c, f := rig(t)
	r := &fakeRecovery{}
	c.WatchRecovery(f.flow, r)
	emit(c, telemetry.KRecoveryEnter)
	r.recovery = true
	r.actnum = 2
	f.cwnd = 6 // drifted away from the entry value without a timeout
	emit(c, telemetry.KCwnd)
	wantRule(t, c, "recovery-cwnd-touched")
}

func TestViolationsDeduplicatedAndPublished(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := telemetry.NewRing(16)
	bus := telemetry.NewBus(ring)
	c := NewChecker(sched, bus)
	bus.Subscribe(c)
	f := healthyFake()
	c.Watch(f)

	var cb int
	c.OnViolation = func(Violation) { cb++ }
	f.ssthresh = 1
	emit(c, telemetry.KCwnd)
	emit(c, telemetry.KCwnd)
	emit(c, telemetry.KCwnd)
	if len(c.Violations()) != 1 || cb != 1 {
		t.Fatalf("dedup failed: %d violations, %d callbacks", len(c.Violations()), cb)
	}
	if got := ring.EventsOf(telemetry.KViolation); len(got) != 1 {
		t.Fatalf("%d violation events on the bus, want 1", len(got))
	}
}

func TestWatchdogStallNoTimer(t *testing.T) {
	sched := sim.NewScheduler(1)
	bus := telemetry.NewBus()
	c := NewChecker(sched, bus)
	bus.Subscribe(c)
	f := healthyFake()
	f.armed = false // data outstanding but no timer: deadlock
	c.Watch(f)
	emit(c, telemetry.KSend) // activates the flow
	if err := c.StartWatchdog(0, sim.Time(2*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	sched.Run(sim.Time(10 * time.Second))
	wantRule(t, c, "stall-no-timer")
}

func TestWatchdogHardStall(t *testing.T) {
	sched := sim.NewScheduler(1)
	bus := telemetry.NewBus()
	c := NewChecker(sched, bus)
	bus.Subscribe(c)
	f := healthyFake()
	c.Watch(f)
	emit(c, telemetry.KSend)
	if err := c.StartWatchdog(0, 0, sim.Time(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	sched.Run(sim.Time(60 * time.Second))
	wantRule(t, c, "stall")
}

func TestWatchdogQuietWhileProgressing(t *testing.T) {
	sched := sim.NewScheduler(1)
	bus := telemetry.NewBus()
	c := NewChecker(sched, bus)
	bus.Subscribe(c)
	f := healthyFake()
	c.Watch(f)
	// Steady progress: una advances every 100 ms for 20 s.
	for i := 0; i < 200; i++ {
		i := i
		sched.NewTimer(func() {
			f.una += 1000
			f.nxt = f.una + 4000
			f.max = f.nxt
			c.Emit(telemetry.Event{At: sched.Now(), Comp: telemetry.CompSender, Kind: telemetry.KAck, Flow: 0})
		}).Reset(sim.Time(time.Duration(i) * 100 * time.Millisecond))
	}
	if err := c.StartWatchdog(0, sim.Time(2*time.Second), sim.Time(15*time.Second)); err != nil {
		t.Fatal(err)
	}
	sched.Run(sim.Time(20 * time.Second))
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("progressing flow flagged: %v", got)
	}
	// A finished flow is never flagged, however long the run idles.
	f.done = true
	sched.Run(sim.Time(120 * time.Second))
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("finished flow flagged: %v", got)
	}
}

func TestWatchdogValidatesParams(t *testing.T) {
	sched := sim.NewScheduler(1)
	c := NewChecker(sched, telemetry.NewBus())
	if err := c.StartWatchdog(sim.Time(-1), 0, 0); err == nil {
		t.Fatal("negative interval accepted")
	}
}
