package telemetry

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"rrtcp/internal/sim"
)

// srec builds an Event with a source instance, the way DecodeNDJSON
// produces them for sampler and sweep events: the named
// attributes land in the kind's A and B slots.
func srec(t float64, comp Component, kind Kind, src string, flow int32, seq int64, attrs map[string]float64) Event {
	a, b := kind.attrNames()
	return Event{At: sim.Time(math.Round(t * 1e9)), Comp: comp, Kind: kind, Src: src, Flow: flow, Seq: seq, A: attrs[a], B: attrs[b]}
}

func TestSummarizeSamples(t *testing.T) {
	records := []Event{
		srec(0.1, CompSender, KSample, "cwnd", 0, 0, map[string]float64{"value": 4}),
		srec(0.2, CompSender, KSample, "cwnd", 0, 0, map[string]float64{"value": 8}),
		srec(0.3, CompSender, KSample, "cwnd", 0, 0, map[string]float64{"value": 6}),
		srec(0.1, CompSender, KSample, "cwnd", 1, 0, map[string]float64{"value": 2}),
		srec(0.1, CompQueue, KSample, "qlen", NoFlow, 0, map[string]float64{"value": 11}),
	}
	sum := summarize(records)

	// Sample events must not fabricate per-flow TCP rows.
	if len(sum.Flows) != 0 {
		t.Errorf("sample-only log produced %d flow rows, want 0", len(sum.Flows))
	}
	if len(sum.Samples) != 3 {
		t.Fatalf("sample series = %d, want 3: %+v", len(sum.Samples), sum.Samples)
	}
	// Sorted by comp, src, flow: queue/qlen before sender/cwnd.
	q := sum.Samples[0]
	if q.Comp != "queue" || q.Src != "qlen" || q.N != 1 || q.Last != 11 {
		t.Errorf("queue series wrong: %+v", q)
	}
	s0 := sum.Samples[1]
	if s0.Flow != 0 || s0.N != 3 || s0.Min != 4 || s0.Max != 8 || s0.Last != 6 {
		t.Errorf("flow-0 cwnd series wrong: %+v", s0)
	}

	out := sum.Render()
	if !strings.Contains(out, "sampled series:") || !strings.Contains(out, "cwnd") {
		t.Errorf("Render missing sample table:\n%s", out)
	}
}

func TestSummarizeSweep(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "workers": 2}),
		srec(0, CompSweep, KSweepJobTime, "j0", NoFlow, 0, map[string]float64{"wall_s": 0.1, "worker": 0}),
		srec(0, CompSweep, KSweepJob, "j0", NoFlow, 0, map[string]float64{"completed": 1, "total": 4}),
		srec(0, CompSweep, KSweepJobTime, "j1", NoFlow, 1, map[string]float64{"wall_s": 0.3, "worker": 1}),
		srec(0, CompSweep, KSweepJob, "j1", NoFlow, 1, map[string]float64{"completed": 2, "total": 4}),
		srec(0, CompSweep, KSweepJobTime, "j2", NoFlow, 2, map[string]float64{"wall_s": 0.2, "worker": 0}),
		srec(0, CompSweep, KSweepJob, "j2", NoFlow, 2, map[string]float64{"completed": 3, "total": 4}),
		srec(0, CompSweep, KSweepJobTime, "j3", NoFlow, 3, map[string]float64{"wall_s": 0.2, "worker": 1}),
		srec(0, CompSweep, KSweepJob, "j3", NoFlow, 3, map[string]float64{"completed": 4, "total": 4}),
		srec(0, CompSweep, KSweepWorker, "0", NoFlow, 0, map[string]float64{"busy_s": 0.3, "jobs": 2}),
		srec(0, CompSweep, KSweepWorker, "1", NoFlow, 0, map[string]float64{"busy_s": 0.5, "jobs": 2}),
		srec(0, CompSweep, KSweepDone, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "wall_s": 0.45}),
	}
	sum := summarize(records)
	if len(sum.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sum.Sweeps))
	}
	sw := sum.Sweeps[0]
	if sw.Name != "chaos" || sw.Jobs != 4 || sw.Workers != 2 || !sw.Done {
		t.Errorf("sweep identity wrong: %+v", sw)
	}
	if sw.Completed != 4 || !almost(sw.WallS, 0.45) {
		t.Errorf("sweep totals wrong: %+v", sw)
	}
	if sw.JobTimeN != 4 || !almost(sw.JobTimeMeanS, 0.2) || !almost(sw.JobTimeMaxS, 0.3) {
		t.Errorf("job-time stats wrong: %+v", sw)
	}
	if len(sw.PerWorker) != 2 || sw.PerWorker[0].Jobs != 2 || !almost(sw.PerWorker[1].BusyS, 0.5) {
		t.Errorf("per-worker stats wrong: %+v", sw.PerWorker)
	}

	out := sum.Render()
	for _, want := range []string{"sweep chaos: 4 jobs on 2 workers", "job wall: n=4", "worker 1: 2 jobs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeSweepTruncatedLog(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "big", NoFlow, 0, map[string]float64{"jobs": 100, "workers": 8}),
		srec(0, CompSweep, KSweepJob, "j0", NoFlow, 0, map[string]float64{"completed": 7, "total": 100}),
	}
	sum := summarize(records)
	if len(sum.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sum.Sweeps))
	}
	sw := sum.Sweeps[0]
	if sw.Done || sw.Completed != 7 || sw.Jobs != 100 {
		t.Errorf("truncated sweep wrong: %+v", sw)
	}
	if !strings.Contains(sum.Render(), "mid-sweep at 7/100") {
		t.Errorf("Render missing truncation notice:\n%s", sum.Render())
	}
}

// An interrupted sweep's sweep-done carries the jobs completed, not the
// total: the summary keeps sweep-start's total and says where it stopped.
func TestSummarizeInterruptedSweepKeepsJobTotal(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "big", NoFlow, 0, map[string]float64{"jobs": 100, "workers": 8}),
		srec(0, CompSweep, KSweepJob, "j6", NoFlow, 6, map[string]float64{"completed": 7, "total": 100}),
		srec(0, CompSweep, KSweepDone, "big", NoFlow, 0, map[string]float64{"jobs": 7, "wall_s": 1.2}),
	}
	sum := summarize(records)
	if len(sum.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sum.Sweeps))
	}
	if sw := sum.Sweeps[0]; !sw.Done || sw.Jobs != 100 || sw.Completed != 7 {
		t.Errorf("interrupted sweep wrong: %+v", sw)
	}
	if want := "sweep big: 100 jobs on 8 workers stopped at 7/100 in 1.200s\n"; !strings.Contains(sum.Render(), want) {
		t.Errorf("Render missing %q:\n%s", want, sum.Render())
	}
}

// rrtrace reads logs written elsewhere: a worker count or worker id in
// one must not size anything. SummarySink's allocation follows the lines.
func TestSummarizeHostileWorkerCounts(t *testing.T) {
	const log = `{"t":0,"comp":"sweep","kind":"sweep-start","src":"big","jobs":1099511627776,"workers":1099511627776}
{"t":0,"comp":"sweep","kind":"sweep-job","src":"j","seq":1,"completed":1,"total":1099511627776}
{"t":0,"comp":"sweep","kind":"sweep-job-time","src":"j","seq":1,"wall_s":0.5,"worker":1099511627775}
{"t":0,"comp":"sweep","kind":"sweep-worker","src":"1099511627776","busy_s":0.5,"jobs":1}
{"t":0,"comp":"sweep","kind":"sweep-done","src":"big","jobs":1,"wall_s":1}
`
	evs, stats, err := decodeAll(strings.NewReader(log))
	if err != nil || stats.Skipped != 0 || len(evs) != 5 {
		t.Fatalf("decode: %d events, %+v, %v", len(evs), stats, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum := summarize(evs)
	runtime.ReadMemStats(&after)
	// A per-worker slice sized to the claim would take 24 TB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("SummarySink allocated %d bytes for five lines", grew)
	}
	sw := sum.Sweeps[0]
	if len(sw.PerWorker) != 2 || sw.PerWorker[0].Worker != 1<<40-1 || sw.PerWorker[1].Worker != 1<<40 {
		t.Fatalf("per-worker rows = %+v, want the two named workers", sw.PerWorker)
	}
	if want := "  worker 1099511627776: 1 jobs, 0.5000s busy\n"; !strings.Contains(sum.Render(), want) {
		t.Errorf("Render missing %q:\n%s", want, sum.Render())
	}
}

// A log written while the scheduler still profiled itself carries
// sched lines: they decode as unknown vocabulary, and the log summarizes
// as it would without them.
func TestSummarizeSchedProfile(t *testing.T) {
	const rest = `{"t":0.100000000,"comp":"queue","kind":"drop","src":"fwd","seq":7,"qlen":8}
{"t":0.200000000,"comp":"sender","kind":"sample","src":"cwnd","flow":0,"value":4}
`
	const old = `{"t":0.050000000,"comp":"sim","kind":"sched","seq":4096,"pending":12,"wall_per_sim_s":0.001}
` + rest + `{"t":0.300000000,"comp":"sim","kind":"sched","seq":8192,"pending":40,"wall_per_sim_s":0.002}
`
	evs, stats, err := decodeAll(strings.NewReader(old))
	if err != nil || stats.Skipped != 0 || stats.Unknown != 2 || len(evs) != 2 {
		t.Fatalf("decode: %d events, %+v, %v; want the two sched lines counted unknown", len(evs), stats, err)
	}
	want, _, _ := decodeAll(strings.NewReader(rest))
	if got, want := summarize(evs).Render(), summarize(want).Render(); got != want {
		t.Errorf("the old log summarizes as\n%s\nwithout its sched lines as\n%s", got, want)
	}
}
