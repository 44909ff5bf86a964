package experiments

import (
	"testing"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/scenario"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// A modest sweep across every variant must complete with zero
// invariant violations: the checker trusts the healthy senders.
func TestChaosSweepClean(t *testing.T) {
	res, err := runResult[*ChaosResult](NewChaosExperiment(ChaosConfig{Schedules: 4, Seed: 7, Bytes: 100 * 1000, Horizon: 60 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Violated(); got != 0 {
		t.Fatalf("clean sweep produced %d violations:\n%s", got, res.Render())
	}
	finished := 0
	for _, st := range res.Stats {
		if st.Runs != 4 {
			t.Errorf("%v: ran %d schedules, want 4", st.Variant, st.Runs)
		}
		finished += st.Finished
	}
	total := 4 * len(workload.Kinds())
	if finished < total*3/4 {
		t.Errorf("only %d/%d runs finished inside the horizon", finished, total)
	}
}

func TestChaosCaseRejectsBadInput(t *testing.T) {
	base := ChaosCase{Variant: "reno", Seed: 1, Bytes: 1000, Horizon: faults.Duration(time.Second)}
	for name, mutate := range map[string]func(*ChaosCase){
		"variant":  func(c *ChaosCase) { c.Variant = "quic" },
		"bytes":    func(c *ChaosCase) { c.Bytes = 0 },
		"horizon":  func(c *ChaosCase) { c.Horizon = 0 },
		"breakage": func(c *ChaosCase) { c.Breakage = "gremlins" },
	} {
		c := base
		mutate(&c)
		if _, err := RunChaosCase(c); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

// wedgeCase deadlocks mid-transfer: the watchdog must flag the silent
// stall, and the resulting bundle must replay to the same violation.
func wedgeCase() ChaosCase {
	return ChaosCase{
		Variant:  "reno",
		Seed:     42,
		Bytes:    100 * 1000,
		Horizon:  faults.Duration(60 * time.Second),
		Breakage: "wedge",
	}
}

func TestChaosBrokenWedgeStalls(t *testing.T) {
	out, err := RunChaosCase(wedgeCase())
	if err != nil {
		t.Fatal(err)
	}
	if out.Finished {
		t.Fatal("wedged sender finished the transfer")
	}
	if len(out.Violations) == 0 {
		t.Fatal("wedged sender triggered no violation")
	}
	if rule := out.Violations[0].Rule; rule != "stall-no-timer" {
		t.Fatalf("wedge flagged as %q, want stall-no-timer", rule)
	}
	if len(out.Events) == 0 {
		t.Fatal("violation outcome carries no ring events")
	}
}

func TestChaosBrokenActnumFlagged(t *testing.T) {
	c := wedgeCase()
	c.Variant = "rr"
	c.Breakage = "actnum"
	out, err := RunChaosCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("lying recovery probe triggered no violation")
	}
	if rule := out.Violations[0].Rule; rule != "actnum-bounds" && rule != "actnum-open" {
		t.Fatalf("liar flagged as %q, want an actnum rule", rule)
	}
}

// The acceptance criterion: a violation's repro bundle replays to the
// identical violation — same rule, same flow, same simulated instant.
func TestChaosBundleReplaysDeterministically(t *testing.T) {
	out, err := RunChaosCase(wedgeCase())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("no violation to bundle")
	}
	dir := t.TempDir()
	path, err := WriteBundle(dir, &Bundle{Case: wedgeCase(), Violation: out.Violations[0], Events: out.Events})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Violation != out.Violations[0] {
		t.Fatalf("bundle round-trip changed the violation: %v -> %v", out.Violations[0], loaded.Violation)
	}
	if len(loaded.Events) != len(out.Events) {
		t.Fatalf("bundle round-trip changed the event tail: %d -> %d events", len(out.Events), len(loaded.Events))
	}
	for i := 0; i < 3; i++ {
		if _, err := ReplayBundle(loaded); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}

// A chaos job records no tail; a violating case runs again for it, and
// that capture run must reproduce the sweep run's first violation — the
// same rule, flow and instant — or the job fails naming both.
func TestChaosCaptureReproducesSweepViolation(t *testing.T) {
	c := wedgeCase()
	out, err := runChaosCase(c, &scenario.World{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 || out.Events != nil {
		t.Fatalf("sweep run: %d violations, %d events; want a violation and no tail", len(out.Violations), len(out.Events))
	}
	first := out.Violations[0]
	capture, err := rerun(c, first, "capture run", "sweep run")
	if err != nil {
		t.Fatal(err)
	}
	if len(capture.Events) != chaosRingCap {
		t.Fatalf("capture carries %d events, want a full ring of %d", len(capture.Events), chaosRingCap)
	}
	moved := first
	moved.At++
	if _, err := rerun(c, moved, "capture run", "sweep run"); err == nil ||
		!containsAll(err.Error(), "capture run diverged", first.String(), moved.String()) {
		t.Fatalf("a capture at another instant gave %v, want an error naming both violations", err)
	}
	healthy := c
	healthy.Breakage = ""
	if _, err := rerun(healthy, first, "capture run", "sweep run"); err == nil ||
		!containsAll(err.Error(), "capture run produced no violation", first.String()) {
		t.Fatalf("a clean capture gave %v, want an error naming the sweep run's violation", err)
	}
}

// A healthy case must produce the byte-identical outcome on every run —
// the determinism that repro bundles stand on.
func TestChaosCaseDeterministic(t *testing.T) {
	c := ChaosCase{
		Variant: "rr",
		Seed:    99,
		Bytes:   100 * 1000,
		Horizon: faults.Duration(60 * time.Second),
		Plan: faults.PlanSpec{
			Flaps:       []faults.FlapSpec{{At: faults.Duration(2 * time.Second), Down: faults.Duration(500 * time.Millisecond)}},
			CorruptRate: 0.01,
			Ack:         &faults.AckSpec{Hold: faults.Duration(20 * time.Millisecond), Max: 4},
		},
	}
	// A healthy outcome carries no event tail, so listen to the whole
	// stream of each run.
	var streams [2][]telemetry.Event
	var finished [2]bool
	for i := range streams {
		all := telemetry.NewRing(0)
		out, err := runChaosCase(c, &scenario.World{}, []telemetry.Sink{all})
		if err != nil {
			t.Fatal(err)
		}
		streams[i], finished[i] = all.Events(), out.Finished
	}
	a, b := streams[0], streams[1]
	if finished[0] != finished[1] || len(a) != len(b) || len(a) == 0 {
		t.Fatalf("re-run diverged: finished %v/%v, %d/%d events", finished[0], finished[1], len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChaosCorpusLaneBound: the scheduler scans one head per lane for
// every event it takes, so the lane count has to stay small under every
// fault plan the chaos sweep draws, not only on a plain dumbbell (eight,
// netem's link_depth_test). A renegotiation changes the bottleneck's rate
// or delay while packets pushed with the old ones are still on the wire;
// the shared sets re-key a lane as soon as it drains, so the delays that
// overlap stay few (the corpus peaks at eight; the bound leaves room for
// a plan that overlaps two renegotiations).
func TestChaosCorpusLaneBound(t *testing.T) {
	const bound = 16
	var w scenario.World // rebuilt for every case, as a sweep's worker does
	renegotiated := 0
	for _, seed := range []int64{1, 7} {
		cfg := ChaosConfig{Schedules: 40, Seed: seed}
		cfg.fillDefaults()
		for _, c := range chaosCases(cfg) {
			_, _, err := chaosWorld(&w, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.Run(c.Horizon.D())
			if n := w.Sched.LaneCount(); n > bound {
				t.Errorf("seed %d, %s under %+v: %d lanes, want <= %d", seed, c.Variant, c.Plan, n, bound)
			}
			if len(c.Plan.Renegotiations) > 0 {
				renegotiated++
			}
		}
	}
	if renegotiated < 100 {
		t.Fatalf("only %d worlds were renegotiated: the corpus is not exercising the bound", renegotiated)
	}
}
