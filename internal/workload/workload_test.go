package workload

import (
	"encoding/json"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v → %v", k, got)
		}
	}
}

func TestParseKindAliases(t *testing.T) {
	cases := map[string]Kind{
		"NewReno":         NewReno,
		"new-reno":        NewReno,
		"  rr ":           RR,
		"robust-recovery": RR,
		"SACK":            SACK,
		"sack-modern":     SACKModern,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("cubic"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range Kinds() {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind has empty String")
	}
}

func TestNeedsSACKReceiver(t *testing.T) {
	for _, k := range Kinds() {
		want := k == SACK || k == SACKModern || k == FACK
		if k.NeedsSACKReceiver() != want {
			t.Fatalf("NeedsSACKReceiver(%v) = %v", k, !want)
		}
	}
}

func TestNewStrategyAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		spec := FlowSpec{Kind: k}
		strat, err := spec.NewStrategy()
		if err != nil {
			t.Fatalf("NewStrategy(%v): %v", k, err)
		}
		if strat.Name() != k.String() {
			t.Fatalf("strategy name %q != kind %q", strat.Name(), k.String())
		}
	}
	if _, err := (FlowSpec{Kind: Kind(99)}).NewStrategy(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNewStrategyRROptions(t *testing.T) {
	spec := FlowSpec{Kind: RR, RROptions: &core.Options{RetreatDupsPerSegment: 1}}
	strat, err := spec.NewStrategy()
	if err != nil {
		t.Fatalf("NewStrategy: %v", err)
	}
	if _, ok := strat.(*core.RRStrategy); !ok {
		t.Fatalf("strategy %T, want *core.RRStrategy", strat)
	}
}

func TestInstallWiresEndToEnd(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(2))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	flows, err := InstallAll(sched, d, []FlowSpec{
		{Kind: RR, Bytes: 20 * 1000},
		{Kind: SACK, Bytes: 20 * 1000, StartAt: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(30 * time.Second)
	for i, f := range flows {
		if !f.Sender.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
		if f.Receiver.Delivered != 20*1000 {
			t.Fatalf("flow %d delivered %d", i, f.Receiver.Delivered)
		}
	}
	if !flows[1].Receiver.SACKEnabled {
		t.Fatal("SACK flow installed without a SACK receiver")
	}
	if flows[0].Receiver.SACKEnabled {
		t.Fatal("RR flow installed with a SACK receiver")
	}
}

func TestInstallDefaultsInfiniteBytes(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	f, err := Install(sched, d, 0, FlowSpec{Kind: Tahoe})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if f.Sender.TotalBytes() != tcp.Infinite {
		t.Fatalf("TotalBytes = %d, want Infinite", f.Sender.TotalBytes())
	}
	sched.Run(time.Second)
	if f.Sender.Done() {
		t.Fatal("infinite flow completed")
	}
}

func TestInstallRejectsBadKind(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	if _, err := Install(sched, d, 0, FlowSpec{Kind: Kind(42)}); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("round trip %v → %v", k, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"cubic"`), &k); err == nil {
		t.Fatal("unknown variant unmarshalled")
	}
	if err := json.Unmarshal([]byte(`42`), &k); err == nil {
		t.Fatal("numeric kind unmarshalled")
	}
}

func TestInstallReverseEndToEnd(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	f, err := InstallReverse(sched, d, 0, FlowSpec{Kind: RR, Bytes: 30 * 1000, Window: 18})
	if err != nil {
		t.Fatalf("install reverse: %v", err)
	}
	sched.Run(30 * time.Second)
	if !f.Sender.Done() {
		t.Fatal("reverse transfer did not complete")
	}
	if f.Receiver.Delivered != 30*1000 {
		t.Fatalf("delivered %d", f.Receiver.Delivered)
	}
	if f.Trace.Name != "rr-rev" {
		t.Fatalf("trace name %q", f.Trace.Name)
	}
}

func TestInstallReverseRejectsBadKind(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	if _, err := InstallReverse(sched, d, 0, FlowSpec{Kind: Kind(42)}); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestForwardAndReverseShareSlot(t *testing.T) {
	// A forward flow on slot 0 and a reverse flow on slot 1 coexist.
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(2))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	fwd, err := Install(sched, d, 0, FlowSpec{Kind: NewReno, Bytes: 20 * 1000, Window: 18})
	if err != nil {
		t.Fatalf("fwd: %v", err)
	}
	rev, err := InstallReverse(sched, d, 1, FlowSpec{Kind: NewReno, Bytes: 20 * 1000, Window: 18})
	if err != nil {
		t.Fatalf("rev: %v", err)
	}
	sched.Run(60 * time.Second)
	if !fwd.Sender.Done() || !rev.Sender.Done() {
		t.Fatalf("fwd done=%t rev done=%t", fwd.Sender.Done(), rev.Sender.Done())
	}
}

// TestInstallAllAllocations: a connection costs at most two
// allocations — the closure of its sender's one timer and its strategy
// — whatever its variant. The flows come in one block that holds their
// senders, receivers and trace holders, and the scoreboards and the
// delayed-ACK timer wait until a run needs them; what is left is a
// constant (that block, the pointers into it) and a logarithm (the
// scheduler's timer table and event heap grow by doubling).
func TestInstallAllAllocations(t *testing.T) {
	for _, k := range []int{1, 4, 16, 64} {
		var specs []FlowSpec
		for i := 0; i < k; i++ {
			for _, kind := range Kinds() {
				specs = append(specs, FlowSpec{Kind: kind, Bytes: 100 * 1000, StartAt: time.Duration(i) * time.Millisecond, NoTrace: true})
			}
		}
		sched := sim.NewScheduler(1)
		d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(len(specs)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := InstallAll(sched, d, specs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		n := len(specs)
		limit := uint64(2*n + 8*bits.Len(uint(n)) + 16)
		if got := after.Mallocs - before.Mallocs; got > limit {
			t.Errorf("InstallAll of %d flows: %d allocations, want at most %d (2 a flow + 8 log2 flows + 16)", n, got, limit)
		}
	}
}

// A flow reinstalled with the same variant keeps its strategy, one with
// another variant or options gets a new one, and a Reset that failed
// halfway leaves nothing to be kept: the strategy it built for one
// variant is never handed to another.
func TestResetKeepsOnlyTheSameStrategy(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var f Flow
	install := func(spec FlowSpec) (tcp.Strategy, error) {
		sched.Reset(1)
		if err := d.Rebuild(sched, netem.PaperDropTailConfig(1)); err != nil {
			t.Fatal(err)
		}
		err := f.Reset(sched, d, 0, spec, false)
		return f.snd.Strategy(), err
	}
	tahoe, _ := install(FlowSpec{Kind: Tahoe})
	if again, _ := install(FlowSpec{Kind: Tahoe, Bytes: 5000}); again != tahoe {
		t.Fatal("reinstalling tahoe built a new strategy")
	}
	if _, err := install(FlowSpec{Kind: Reno, StartAt: -time.Second}); err == nil {
		t.Fatal("a start in the past installed")
	}
	if s, _ := install(FlowSpec{Kind: Tahoe}); s.Name() != "tahoe" {
		t.Fatalf("tahoe after a failed reno install runs %s", s.Name())
	}
	rr, _ := install(FlowSpec{Kind: RR})
	if s, _ := install(FlowSpec{Kind: RR, RROptions: &core.Options{HalveOnFurtherLoss: true}}); s == rr {
		t.Fatal("RR with other options kept the published RR's strategy")
	}
	custom := tcp.NewNewReno()
	if s, _ := install(FlowSpec{Kind: NewReno, Strategy: custom}); s != custom {
		t.Fatal("a spec's own strategy was not used")
	}
	if s, _ := install(FlowSpec{Kind: NewReno}); s == custom {
		t.Fatal("a spec's own strategy was kept for the next flow")
	}
}
