package experiments

import (
	"strings"
	"testing"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// The tests in this file assert the *shape* of the paper's results:
// who wins, who times out, where the crossovers fall. Absolute numbers
// are environment-specific (DESIGN.md §4).

// runResult runs e with default options and returns its concrete
// result.
func runResult[R Renderable](e Experiment) (R, error) {
	res, err := Run(e, RunOptions{})
	if err != nil {
		var zero R
		return zero, err
	}
	return res.(R), nil
}

func TestFigure5ThreeDropsShape(t *testing.T) {
	res, err := runResult[*Figure5Result](NewFigure5Experiment(Figure5Config{Drops: 3}))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := res.Row(workload.RR)
	sack, _ := res.Row(workload.SACK)
	newreno, _ := res.Row(workload.NewReno)
	tahoe, _ := res.Row(workload.Tahoe)
	for _, row := range res.Rows {
		if !row.Finished {
			t.Fatalf("%v did not finish", row.Variant)
		}
		if row.Timeouts != 0 {
			t.Fatalf("%v timed out on a 3-packet burst", row.Variant)
		}
	}
	// RR and SACK clearly outperform New-Reno and Tahoe is no better
	// than the rest (paper Figure 5, left).
	if rr.GoodputBps <= newreno.GoodputBps {
		t.Fatalf("RR (%.0f) not above New-Reno (%.0f)", rr.GoodputBps, newreno.GoodputBps)
	}
	if sack.GoodputBps <= newreno.GoodputBps {
		t.Fatalf("SACK (%.0f) not above New-Reno (%.0f)", sack.GoodputBps, newreno.GoodputBps)
	}
	// RR performs at least as well as SACK within a small tolerance
	// ("achieves at least as much performance improvements as SACK").
	if rr.GoodputBps < sack.GoodputBps*0.97 {
		t.Fatalf("RR (%.0f) more than 3%% below SACK (%.0f)", rr.GoodputBps, sack.GoodputBps)
	}
	if tahoe.GoodputBps > rr.GoodputBps {
		t.Fatalf("Tahoe (%.0f) above RR (%.0f)", tahoe.GoodputBps, rr.GoodputBps)
	}
}

func TestFigure5SixDropsShape(t *testing.T) {
	res, err := runResult[*Figure5Result](NewFigure5Experiment(Figure5Config{Drops: 6}))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := res.Row(workload.RR)
	sack, _ := res.Row(workload.SACK)
	newreno, _ := res.Row(workload.NewReno)
	tahoe, _ := res.Row(workload.Tahoe)
	if rr.Timeouts != 0 {
		t.Fatal("RR timed out on a 6-packet burst")
	}
	// Paper Figure 5 (right): Tahoe is more robust than New-Reno under
	// heavy burst loss; RR stays at least on par with SACK.
	if tahoe.GoodputBps <= newreno.GoodputBps {
		t.Fatalf("Tahoe (%.0f) not above New-Reno (%.0f) at 6 drops",
			tahoe.GoodputBps, newreno.GoodputBps)
	}
	if rr.GoodputBps <= newreno.GoodputBps {
		t.Fatalf("RR (%.0f) not above New-Reno (%.0f)", rr.GoodputBps, newreno.GoodputBps)
	}
	if rr.GoodputBps < sack.GoodputBps*0.97 {
		t.Fatalf("RR (%.0f) more than 3%% below SACK (%.0f)", rr.GoodputBps, sack.GoodputBps)
	}
}

func TestFigure5HeavyBurstRRWinsOutright(t *testing.T) {
	// Beyond half the window the classic SACK pipe stalls into a
	// timeout while RR keeps its ACK clock — the robustness headline.
	res, err := runResult[*Figure5Result](NewFigure5Experiment(Figure5Config{Drops: 8}))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := res.Row(workload.RR)
	sack, _ := res.Row(workload.SACK)
	if rr.Timeouts != 0 {
		t.Fatal("RR timed out at 8 drops")
	}
	if sack.Timeouts == 0 {
		t.Skip("classic SACK did not stall at this window; heavier burst needed")
	}
	if rr.GoodputBps <= sack.GoodputBps {
		t.Fatalf("RR (%.0f) not above stalled SACK (%.0f)", rr.GoodputBps, sack.GoodputBps)
	}
}

func TestFigure5DropPattern(t *testing.T) {
	cfg := Figure5Config{Drops: 6}
	pkts := cfg.DropPacketNumbers()
	if len(pkts) != 6 {
		t.Fatalf("%d drops, want 6", len(pkts))
	}
	// Pairs with single-packet gaps, like the paper's 4,5,7,8 example.
	want := []int64{60, 61, 63, 64, 66, 67}
	for i := range want {
		if pkts[i] != want[i] {
			t.Fatalf("pattern %v, want %v", pkts, want)
		}
	}
}

func TestFigure5Render(t *testing.T) {
	res, err := runResult[*Figure5Result](NewFigure5Experiment(Figure5Config{Drops: 3}))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"tahoe", "newreno", "sack", "rr", "3 packet losses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := runResult[*Figure6Result](NewFigure6Experiment(Figure6Config{}))
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.Panel(workload.RR)
	if !ok {
		t.Fatal("no RR panel")
	}
	newreno, _ := res.Panel(workload.NewReno)
	sack, _ := res.Panel(workload.SACK)
	// Paper Figure 6: RR achieves the highest effective throughput
	// under RED. Flow-1 goodput is noisy even averaged, so assert the
	// robust half of the claim on the aggregate and require flow 1 to
	// be at least competitive.
	if rr.AggregateGoodputBps <= newreno.AggregateGoodputBps ||
		rr.AggregateGoodputBps <= sack.AggregateGoodputBps {
		t.Fatalf("RR aggregate %.0f not highest (newreno %.0f, sack %.0f)",
			rr.AggregateGoodputBps, newreno.AggregateGoodputBps, sack.AggregateGoodputBps)
	}
	if rr.Flow0GoodputBps < 0.85*newreno.Flow0GoodputBps {
		t.Fatalf("RR flow-1 goodput %.0f far below New-Reno %.0f",
			rr.Flow0GoodputBps, newreno.Flow0GoodputBps)
	}
	if len(rr.Flow0Seq) == 0 {
		t.Fatal("no sequence trace for the plot")
	}
}

func TestFigure6RenderIncludesPlots(t *testing.T) {
	res, err := runResult[*Figure6Result](NewFigure6Experiment(Figure6Config{Seeds: []int64{42}}))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "sequence plot (rr)") {
		t.Fatalf("render missing RR plot:\n%s", out)
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := runResult[*Figure7Result](NewFigure7Experiment(Figure7Config{
		LossRates: []float64{0.001, 0.01, 0.1},
		Duration:  40 * time.Second,
		Seeds:     []int64{1, 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []workload.Kind{workload.SACK, workload.RR} {
		low, _ := res.Point(kind, 0.001)
		mid, _ := res.Point(kind, 0.01)
		high, _ := res.Point(kind, 0.1)
		// Windows decrease with loss rate.
		if !(low.Window > mid.Window && mid.Window > high.Window) {
			t.Fatalf("%v window not decreasing: %v %v %v", kind, low.Window, mid.Window, high.Window)
		}
		// At moderate loss the measurement tracks the model within ~35%.
		if r := mid.Window / mid.ModelWindow; r < 0.65 || r > 1.35 {
			t.Fatalf("%v window/model = %v at p=0.01", kind, r)
		}
		// At heavy loss, timeouts push the window well below the bound
		// (the paper's stated deviation).
		if high.Window > 0.7*high.ModelWindow {
			t.Fatalf("%v window %v did not fall below the bound %v at p=0.1",
				kind, high.Window, high.ModelWindow)
		}
		if high.Timeouts == 0 {
			t.Fatalf("%v reported no timeouts at p=0.1", kind)
		}
	}
}

func TestFigure7RRMatchesSACKFitness(t *testing.T) {
	res, err := runResult[*Figure7Result](NewFigure7Experiment(Figure7Config{
		LossRates: []float64{0.005},
		Duration:  60 * time.Second,
		Seeds:     []int64{1, 2, 3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := res.Point(workload.RR, 0.005)
	sack, _ := res.Point(workload.SACK, 0.005)
	// "RR achieves the same level of fitness to the model as SACK."
	if r := rr.Window / sack.Window; r < 0.85 || r > 1.15 {
		t.Fatalf("RR/SACK window ratio %v, want ~1", r)
	}
}

func TestTable5Shape(t *testing.T) {
	res, err := runResult[*Table5Result](NewTable5Experiment(Table5Config{}))
	if err != nil {
		t.Fatal(err)
	}
	renoReno, _ := res.Row(workload.Reno, workload.Reno)
	rrReno, _ := res.Row(workload.RR, workload.Reno)
	renoRR, _ := res.Row(workload.Reno, workload.RR)
	for _, row := range res.Rows {
		if !row.Finished {
			t.Fatalf("case %q did not finish", row.Case.Label)
		}
	}
	// Paper Table 5: an RR background does NOT hurt a Reno target (it
	// helps, via reduced synchronization) ...
	if rrReno.TransferDelay > renoReno.TransferDelay*11/10 {
		t.Fatalf("RR background hurt the Reno target: %.1fs vs %.1fs",
			rrReno.TransferDelay.Seconds(), renoReno.TransferDelay.Seconds())
	}
	// ... and a single RR flow against Reno background beats the all-
	// Reno baseline without starving anyone.
	if renoRR.TransferDelay >= renoReno.TransferDelay {
		t.Fatalf("RR target (%.1fs) not faster than the Reno baseline (%.1fs)",
			renoRR.TransferDelay.Seconds(), renoReno.TransferDelay.Seconds())
	}
}

func TestTable5Render(t *testing.T) {
	res, err := runResult[*Table5Result](NewTable5Experiment(Table5Config{Seeds: []int64{1}}))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Reno bg / RR target") {
		t.Fatalf("render missing case labels:\n%s", out)
	}
}

func TestAckLossShape(t *testing.T) {
	res, err := runResult[*AckLossResult](NewAckLossExperiment(AckLossConfig{
		AckLossRates: []float64{0, 0.1},
		Seeds:        []int64{1, 2, 3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var rr0, rr10 AckLossPoint
	for _, pt := range res.Points {
		if pt.Variant == workload.RR && pt.AckLossRate == 0 {
			rr0 = pt
		}
		if pt.Variant == workload.RR && pt.AckLossRate == 0.1 {
			rr10 = pt
		}
	}
	if rr0.Completed != rr0.Runs {
		t.Fatal("RR did not complete without ACK loss")
	}
	// Paper §2.3: rare ACK losses cause only a slight effect.
	if rr10.Completed != rr10.Runs {
		t.Fatal("RR failed to complete under 10% ACK loss")
	}
	if rr10.MeanDelay > rr0.MeanDelay*2 {
		t.Fatalf("10%% ACK loss more than doubled RR's delay: %v vs %v",
			rr10.MeanDelay, rr0.MeanDelay)
	}
}

func TestAblationShape(t *testing.T) {
	res, err := runResult[*AblationResult](NewAblationExperiment(3))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string]AblationRow, len(res.Rows))
	for _, row := range res.Rows {
		byLabel[row.Variant.Label] = row
		if !row.Finished {
			t.Fatalf("%q did not finish", row.Variant.Label)
		}
	}
	pub := byLabel["rr (published)"]
	noDetect := byLabel["no further-loss detection"]
	bigAck := byLabel["exit to ssthresh (big ACK)"]
	// Further-loss detection must pay for itself.
	if noDetect.TransferDelay <= pub.TransferDelay {
		t.Fatalf("disabling further-loss detection did not hurt: %v vs %v",
			noDetect.TransferDelay, pub.TransferDelay)
	}
	// The ssthresh exit reintroduces a burst at least as large as the
	// published hand-off's.
	if bigAck.ExitBurst < pub.ExitBurst {
		t.Fatalf("ssthresh exit burst %d below published %d", bigAck.ExitBurst, pub.ExitBurst)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "t",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("x", "y")
	tbl.AddRow("longer", "z")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "a") || !strings.Contains(lines[1], "bb") {
		t.Fatalf("header wrong: %q", lines[1])
	}
}

func TestFairShareShape(t *testing.T) {
	res, err := runResult[*FairShareResult](NewFairShareExperiment(FairShareConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	fifo, _ := res.Row("fifo")
	drr, _ := res.Row("drr")
	if !fifo.Finished || !drr.Finished {
		t.Fatal("transfers did not finish")
	}
	// §2.3's claim: with per-flow fair sharing the ACK flow's loss
	// probability is far smaller than under FIFO sharing.
	if drr.AckLossRate > fifo.AckLossRate/5 {
		t.Fatalf("DRR ack loss %.1f%% not far below FIFO %.1f%%",
			drr.AckLossRate*100, fifo.AckLossRate*100)
	}
	if fifo.AckLossRate < 0.05 {
		t.Fatalf("FIFO ack loss %.1f%% too low for the scenario to be meaningful",
			fifo.AckLossRate*100)
	}
	if drr.TransferDelay > fifo.TransferDelay {
		t.Fatal("fair queueing did not speed up the ACK-starved transfer")
	}
}

func TestTwoWayShape(t *testing.T) {
	res, err := runResult[*TwoWayResult](NewTwoWayExperiment(TwoWayConfig{Seeds: []int64{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := res.Row(workload.RR)
	newreno, _ := res.Row(workload.NewReno)
	if rr.Completed != rr.Runs || newreno.Completed != newreno.Runs {
		t.Fatal("two-way transfers did not complete")
	}
	// RR's recovery must stay at least competitive when real two-way
	// traffic interleaves with its ACK clock.
	if rr.MeanDelay > newreno.MeanDelay*11/10 {
		t.Fatalf("RR (%.2fs) more than 10%% behind New-Reno (%.2fs) under two-way traffic",
			rr.MeanDelay.Seconds(), newreno.MeanDelay.Seconds())
	}
}

func TestSmoothStartShape(t *testing.T) {
	res, err := runResult[*SmoothStartResult](NewSmoothStartExperiment(SmoothStartConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	classic, _ := res.Row(false)
	smooth, _ := res.Row(true)
	if !classic.Finished || !smooth.Finished {
		t.Fatal("transfers did not finish")
	}
	if classic.SlowStartDrops == 0 {
		t.Fatal("classic slow start did not overshoot; the scenario is too gentle")
	}
	// The companion work's claim: the refinement softens the overshoot.
	if smooth.SlowStartDrops >= classic.SlowStartDrops {
		t.Fatalf("smooth-start drops %d not below classic %d",
			smooth.SlowStartDrops, classic.SlowStartDrops)
	}
	if smooth.TransferDelay > classic.TransferDelay*11/10 {
		t.Fatalf("smooth-start cost too much: %v vs %v",
			smooth.TransferDelay, classic.TransferDelay)
	}
}

func TestFigure7DelayedAckFitsOwnConstant(t *testing.T) {
	res, err := runResult[*Figure7Result](NewFigure7Experiment(Figure7Config{
		LossRates:  []float64{0.005},
		Duration:   60 * time.Second,
		Seeds:      []int64{1, 2},
		DelayedAck: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := res.Point(workload.SACK, 0.005)
	// With delayed ACKs the model constant is sqrt(3/4): the bound at
	// p=0.005 drops to ~12.2 packets and the measurement must sit near
	// it, clearly below the ACK-every-packet bound (~17.3).
	if pt.ModelWindow > 13 {
		t.Fatalf("model window %v; delayed-ACK constant not applied", pt.ModelWindow)
	}
	if r := pt.Window / pt.ModelWindow; r < 0.6 || r > 1.6 {
		t.Fatalf("window/model = %v under delayed ACKs", r)
	}
}

func TestBurstyShape(t *testing.T) {
	res, err := runResult[*BurstyResult](NewBurstyExperiment(BurstyConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	// At heavy burstiness (mean burst 8 packets at the same 2% rate),
	// RR's single-signal burst handling must clearly beat New-Reno —
	// the paper's core thesis under a realistic correlated-loss channel.
	rr8, _ := res.Point(workload.RR, 8)
	nr8, _ := res.Point(workload.NewReno, 8)
	sack8, _ := res.Point(workload.SACK, 8)
	if rr8.GoodputBps < 1.5*nr8.GoodputBps {
		t.Fatalf("RR (%.0f) not ≥1.5× New-Reno (%.0f) at burst 8", rr8.GoodputBps, nr8.GoodputBps)
	}
	if rr8.GoodputBps < sack8.GoodputBps {
		t.Fatalf("RR (%.0f) below SACK (%.0f) at burst 8", rr8.GoodputBps, sack8.GoodputBps)
	}
	// At burst 1 the channel is effectively i.i.d. and the schemes are
	// within a band of each other.
	rr1, _ := res.Point(workload.RR, 1)
	nr1, _ := res.Point(workload.NewReno, 1)
	if r := rr1.GoodputBps / nr1.GoodputBps; r < 0.8 || r > 1.25 {
		t.Fatalf("burst-1 ratio rr/newreno = %v, want ~1", r)
	}
}

func TestFigure5TraceRunShowsRRPhases(t *testing.T) {
	cfg := Figure5Config{Drops: 3}
	cfg.fillDefaults()
	flow, err := figure5World(&scenario.World{}, cfg, workload.RR, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawRecovery, sawProbe, sawExit bool
	for _, s := range flow.Trace.Samples() {
		switch s.Kind {
		case trace.EvRecovery:
			sawRecovery = true
		case trace.EvPhaseFlip:
			sawProbe = true
		case trace.EvExit:
			sawExit = true
		}
	}
	if !sawRecovery || !sawProbe || !sawExit {
		t.Fatalf("RR trace missing phases: recovery=%t probe=%t exit=%t",
			sawRecovery, sawProbe, sawExit)
	}
}
