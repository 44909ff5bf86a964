package main

import (
	"io"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram: BENCHMARK.json and the program declare the
// same workloads and metrics, within the contract's limits, and every
// per-layer metric says which end-to-end metric it should move where.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(man.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("manifest workloads %v, program workloads %v", names, workloadNames())
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(man.EndToEnd, man.PerLayer) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if i := slices.IndexFunc(man.EndToEnd, func(d metricDecl) bool { return d.Name == "setup_s" }); i < 0 ||
		man.EndToEnd[i].Unit != "s" || man.EndToEnd[i].Better != "lower" {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}

	for _, d := range man.PerLayer {
		targets, ok := layerMoves[d.Name]
		if !ok || len(targets) == 0 {
			t.Errorf("per-layer metric %s declares no end-to-end metric and workload it should move", d.Name)
		}
		for _, tg := range targets {
			if !hasDecl(man.EndToEnd, tg.metric) || !slices.Contains(names, tg.workload) {
				t.Errorf("%s: target %s on %s is not a declared metric and workload", d.Name, tg.metric, tg.workload)
			}
		}
	}
	for name := range layerMoves {
		if !hasDecl(man.PerLayer, name) {
			t.Errorf("program measures %s but BENCHMARK.json does not declare it", name)
		}
	}
}

// smokeRun runs every workload at smoke scale and returns the document.
func smokeRun(t *testing.T, traced bool) *document {
	t.Helper()
	out := filepath.Join(t.TempDir(), "doc.json")
	args := []string{"-smoke", "-out", out}
	if traced {
		args = append(args, "--trace", "1", "-trace-out", filepath.Join(t.TempDir(), "spans.json"))
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("bench %v: %v", args, err)
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSmoke runs every workload twice, traced and untraced, at smoke
// scale: the reported names are exactly the declared ones (run refuses
// anything else), no round fails, and digests and exact counts repeat.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		a, b := smokeRun(t, traced), smokeRun(t, traced)
		if len(a.Workloads) != len(workloads) {
			t.Fatalf("traced=%v: %d workloads reported, want %d", traced, len(a.Workloads), len(workloads))
		}
		for i, wa := range a.Workloads {
			wb := b.Workloads[i]
			if wa.Failed != 0 || wa.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d rounds failed: %v", wa.Name, traced, wa.Failed, wa.Attempted, wa.Failures)
			}
			if wa.Digest == "" || wa.Digest != wb.Digest {
				t.Errorf("%s traced=%v: digests %q and %q", wa.Name, traced, wa.Digest, wb.Digest)
			}
			if len(wa.Metrics) != len(man.decls(traced)) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wa.Name, traced, len(wa.Metrics), len(man.decls(traced)))
			}
			if !traced {
				continue
			}
			for _, name := range exactCounts {
				if wa.Metrics[name].Value != wb.Metrics[name].Value {
					t.Errorf("%s: %s = %v then %v", wa.Name, name, wa.Metrics[name].Value, wb.Metrics[name].Value)
				}
			}
			if wa.Metrics["sim.events"].Value == 0 {
				t.Errorf("%s: sim.events = 0", wa.Name)
			}
		}
	}
}

// TestSpanArithmetic checks self = span - children with the calibrated
// tracer cost taken out, on a synthetic tree: a sender span doing 100 ns
// of its own work around a port span doing 50 ns, plus a lone receiver
// span doing 70 ns.
func TestSpanArithmetic(t *testing.T) {
	cal := calibration{inner: 10, full: 30, skip: 2}
	spans := []span{
		{name: spanRun, parent: -1, start: 0, end: 1000},
		// 40 before the child, child occupies full+work = 80, 60 after,
		// plus the parent's own inner 10: reads 190.
		{name: spanTCPSender, parent: 0, start: 100, end: 290},
		{name: spanDataPort, parent: 1, start: 150, end: 210}, // reads inner+50
		{name: spanReceiver, parent: 0, start: 400, end: 480}, // reads inner+70
	}
	self, total := selfTimes(spans, 0, cal)
	want := func(what string, got, exp float64) {
		t.Helper()
		if got != exp {
			t.Errorf("%s = %v, want %v", what, got, exp)
		}
	}
	want("sender total", total[spanTCPSender], 150)
	want("sender self", self[spanTCPSender], 100)
	want("port self", self[spanDataPort], 50)
	want("receiver self", self[spanReceiver], 70)
	want("phase spans are not hot", self[spanRun], 0)

	// Sampling: 160 sender calls of which 10 were timed scale by 16.
	rs := roundSpans{cal: cal}
	rs.calls[spanTCPSender], rs.sampled[spanTCPSender], rs.self[spanTCPSender] = 160, 10, 1000
	want("scaled self", rs.selfNs(spanTCPSender), 16000)
	want("per call", rs.perCall(spanTCPSender), 100)
	want("never hit", rs.perCall(spanCoreSender), 0)
	want("overhead", rs.overheadNs(), 10*30+150*2)
}

// TestTracerSampling: one top-level hot call in `every` is recorded
// together with what nests inside it; everything is counted.
func TestTracerSampling(t *testing.T) {
	tr := newTracer(4, calibration{})
	from := tr.startRound()
	run := tr.begin(spanRun)
	for i := 0; i < 16; i++ {
		outer := tr.enter(spanTCPSender)
		inner := tr.enter(spanDataPort)
		if inner != outer {
			t.Fatalf("call %d: nested span recorded=%v under parent recorded=%v", i, inner, outer)
		}
		tr.exit(inner)
		tr.exit(outer)
	}
	tr.end(run)
	if tr.calls[spanTCPSender] != 16 || tr.calls[spanDataPort] != 16 {
		t.Errorf("calls = %d and %d, want 16 and 16", tr.calls[spanTCPSender], tr.calls[spanDataPort])
	}
	if tr.sampled[spanTCPSender] != 4 || tr.sampled[spanDataPort] != 4 {
		t.Errorf("sampled = %d and %d, want 4 and 4", tr.sampled[spanTCPSender], tr.sampled[spanDataPort])
	}
	for i, s := range tr.spans[from:] {
		switch s.name {
		case spanTCPSender:
			if s.parent != run {
				t.Errorf("span %d: top-level hot span has parent %d, want the run span %d", i, s.parent, run)
			}
		case spanDataPort:
			if tr.spans[s.parent].name != spanTCPSender {
				t.Errorf("span %d: port span's parent is %v", i, spanNames[tr.spans[s.parent].name])
			}
		}
	}
	if cal := calibrate(); cal.inner <= 0 || cal.full < cal.inner || cal.skip <= 0 || cal.skip >= cal.full {
		t.Errorf("implausible calibration %+v", cal)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDecl{Name: "round_ms", Better: "lower", Bound: 0.10}
	tight := func(v float64) metric { return metric{Value: v, P25: v * 0.99, P75: v * 1.01, N: 9} }
	wide := func(v float64) metric { return metric{Value: v, P25: v * 0.9, P75: v * 1.1, N: 9} }
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{tight(100), tight(105), "unchanged"},
		{tight(100), tight(115), "regressed"},
		{tight(100), tight(85), "improved"},
		{wide(100), tight(105), "unresolved"},
		{wide(100), tight(50), "improved"},
	} {
		if _, got := verdict(c.a, c.b, d); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}
