package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

// TestProgressSinkConcurrentWorkers checks the interactive status line
// stays coherent when jobs finish on four workers: progress events are
// published from the coordinating goroutine only, so the rendered
// stream must contain exactly one header, one status update per job,
// and one final summary line — no interleaving artifacts.
func TestProgressSinkConcurrentWorkers(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewProgressSink(&buf)
	bus := telemetry.NewBus(sink)

	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("case-%02d", i),
			Run:  func(seed int64) (any, error) { return seed, nil },
		}
	}
	if _, err := Run(Config{Name: "progress", Workers: 4, Telemetry: bus}, jobs); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.HasPrefix(out, fmt.Sprintf("progress: %d jobs on 4 workers\n", n)) {
		t.Errorf("missing or wrong header:\n%q", out)
	}
	if !strings.Contains(out, fmt.Sprintf("progress: %d jobs done", n)) {
		t.Errorf("missing final summary:\n%q", out)
	}
	// One CR-prefixed update per job plus the final line's CR.
	if got := strings.Count(out, "\r"); got != n+1 {
		t.Errorf("status updates = %d, want %d", got, n+1)
	}
	// Every update reports a monotonically increasing completed count.
	last := 0
	for _, seg := range strings.Split(out, "\r")[1:] {
		var done, total int
		if _, err := fmt.Sscanf(seg, "%d/%d", &done, &total); err != nil {
			continue // the final "name: N jobs done" segment
		}
		if done < last || total != n {
			t.Errorf("non-monotone or mistotaled update %q (prev %d)", seg, last)
		}
		last = done
	}
	if last != n {
		t.Errorf("last streamed count = %d, want %d", last, n)
	}
}

// TestProgressStateConcurrentWorkers runs the same sweep against the
// materialized ProgressState view and checks the end-of-sweep
// accounting: per-worker jobs must sum to the job count, busy time and
// wall time must be coherent, and the latency stats populated.
func TestProgressStateConcurrentWorkers(t *testing.T) {
	ps := telemetry.NewProgressState()
	bus := telemetry.NewBus(ps)

	const n, workers = 24, 4
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("case-%02d", i),
			Run: func(seed int64) (any, error) {
				s := 0
				for k := 0; k < 2000; k++ {
					s += k
				}
				return s, nil
			},
		}
	}
	if _, err := Run(Config{Name: "state", Workers: workers, Telemetry: bus}, jobs); err != nil {
		t.Fatal(err)
	}

	snap := ps.Snapshot()
	if snap.Active {
		t.Error("sweep still active after Run returned")
	}
	if snap.Name != "state" || snap.Jobs != n || snap.Workers != workers || snap.Completed != n {
		t.Errorf("snapshot totals off: %+v", snap)
	}
	if len(snap.PerWorker) != workers {
		t.Fatalf("PerWorker len = %d, want %d", len(snap.PerWorker), workers)
	}
	sum := 0
	for w, p := range snap.PerWorker {
		if p.Jobs < 0 || p.BusyS < 0 {
			t.Errorf("worker %d has negative accounting: %+v", w, p)
		}
		sum += p.Jobs
	}
	if sum != n {
		t.Errorf("per-worker jobs sum to %d, want %d", sum, n)
	}
	if snap.JobTimeMeanS < 0 || snap.JobTimeMaxS < snap.JobTimeMeanS {
		t.Errorf("job wall stats incoherent: mean=%v max=%v", snap.JobTimeMeanS, snap.JobTimeMaxS)
	}
	if snap.WallS <= 0 {
		t.Errorf("wall time not recorded: %v", snap.WallS)
	}
	if snap.SweepsDone != 1 {
		t.Errorf("SweepsDone = %d, want 1", snap.SweepsDone)
	}
}

// TestMetricsSinkSweepLifecycle checks the registry-side view of a
// sweep: lifecycle counters, totals gauges, and the per-worker metrics
// the engine publishes at the end.
func TestMetricsSinkSweepLifecycle(t *testing.T) {
	sink := telemetry.NewMetricsSink()
	bus := telemetry.NewBus(sink)

	const n, workers = 9, 3
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func(seed int64) (any, error) { return nil, nil }}
	}
	if _, err := Run(Config{Name: "metrics", Workers: workers, Telemetry: bus}, jobs); err != nil {
		t.Fatal(err)
	}

	r := sink.R
	if got := r.Counter("sweep.started"); got != 1 {
		t.Errorf("sweep.started = %d, want 1", got)
	}
	if got := r.Counter("sweep.finished"); got != 1 {
		t.Errorf("sweep.finished = %d, want 1", got)
	}
	if got := r.Gauge("sweep.jobs_total"); got != n {
		t.Errorf("sweep.jobs_total = %v, want %d", got, n)
	}
	if got := r.Gauge("sweep.jobs_completed"); got != n {
		t.Errorf("sweep.jobs_completed = %v, want %d", got, n)
	}
	if got := r.Gauge("sweep.workers"); got != workers {
		t.Errorf("sweep.workers = %v, want %d", got, workers)
	}
	if h := r.LogHist("sweep.job_latency_s"); h == nil || h.Count() != n {
		t.Errorf("sweep.job_latency_s missing or miscounted: %v", h)
	}
	var workerJobs float64
	for w := 0; w < workers; w++ {
		workerJobs += r.Gauge(fmt.Sprintf("sweep.%d.worker_jobs", w))
	}
	if int(workerJobs) != n {
		t.Errorf("per-worker job gauges sum to %v, want %d", workerJobs, n)
	}
}

// TestSweepsAgreeAcrossConsumers publishes one real sweep — four
// workers, a job held past the stall threshold and one degraded job —
// to an NDJSON log, a ProgressState and a MetricsSink at once. rrtrace
// summary's reading of the log must be /progress's final document, and
// both must agree with the registry's sweep metrics.
func TestSweepsAgreeAcrossConsumers(t *testing.T) {
	var log bytes.Buffer
	nd := telemetry.NewNDJSONSink(&log)
	ps := telemetry.NewProgressState()
	ms := telemetry.NewMetricsSink()
	bus := telemetry.NewBus(nd, ps, ms)

	const n, workers = 12, 4
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("cell-%02d", i), Run: func(int64) (any, error) {
			switch i {
			case 3:
				time.Sleep(100 * time.Millisecond) // several watchdog ticks past StallAfter
			case 7:
				return nil, &budgetErr{resource: "events"}
			}
			return i, nil
		}}
	}
	cfg := Config{Name: "agree", Workers: workers, Telemetry: bus, StallAfter: 5 * time.Millisecond}
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	summary := telemetry.NewSummarySink()
	stats, err := telemetry.DecodeNDJSON(&log, summary)
	if err != nil || stats.Skipped != 0 {
		t.Fatalf("decode: %+v, %v", stats, err)
	}
	sum := summary.Summary()
	if len(sum.Sweeps) != 1 {
		t.Fatalf("summary has %d sweeps, want 1", len(sum.Sweeps))
	}
	got := sum.Sweeps[0]
	snap := ps.Snapshot()
	if snap.Active || snap.SweepsDone != 1 {
		t.Fatalf("progress after Run: active=%v sweeps_done=%d", snap.Active, snap.SweepsDone)
	}
	if !reflect.DeepEqual(got, snap.SweepStats) {
		t.Fatalf("summary and /progress disagree:\n summary: %+v\nprogress: %+v", got, snap.SweepStats)
	}
	if got.Jobs != n || got.Completed != n || got.Workers != workers || got.Stalls < 1 || got.Degraded != 1 || len(got.PerWorker) != workers {
		t.Fatalf("sweep stats: %+v", got)
	}
	r := ms.R
	for name, want := range map[string]float64{
		"sweep.jobs_total":     float64(got.Jobs),
		"sweep.workers":        float64(got.Workers),
		"sweep.jobs_completed": float64(got.Completed),
	} {
		if g := r.Gauge(name); g != want {
			t.Errorf("%s = %v, the fold read %v", name, g, want)
		}
	}
	if r.Counter("sweep.stalls") != uint64(got.Stalls) || r.Counter("sweep.degraded") != uint64(got.Degraded) {
		t.Errorf("registry counts %d stalls, %d degraded; the fold %d, %d",
			r.Counter("sweep.stalls"), r.Counter("sweep.degraded"), got.Stalls, got.Degraded)
	}
	for _, w := range got.PerWorker {
		if g := r.Gauge(fmt.Sprintf("sweep.%d.worker_jobs", w.Worker)); g != float64(w.Jobs) {
			t.Errorf("sweep.%d.worker_jobs = %v, the fold read %d", w.Worker, g, w.Jobs)
		}
	}
}
