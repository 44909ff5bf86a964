// Package sweep is the parallel execution engine for parameter sweeps:
// it fans independent deterministic simulation runs out across a pool
// of worker goroutines while keeping the merged results bit-identical
// to sequential execution.
//
// Every evaluation in the paper is a sweep of independent runs — the
// Figure 7 loss-rate grid, the Table 5 scenario matrix, the chaos rig's
// seeded fault schedules — and each run owns its entire world: its own
// sim.Scheduler, its own telemetry bus, its own invariant checker.
// Nothing is shared between jobs, so running them concurrently cannot
// change what any single job computes. The engine's one obligation is
// to keep the *aggregate* deterministic too, which it does by merging
// results in job-index order regardless of completion order and by
// reporting failures lowest-index-first.
//
// Determinism contract:
//
//   - A job must be self-contained: it builds its own scheduler (from
//     the seed the engine hands it) and must not touch global mutable
//     state or any structure shared with another job.
//   - Run returns results indexed exactly like the jobs slice; output
//     derived from that slice is byte-identical at any worker count,
//     including 1.
//   - Seeds are fixed before execution starts: a job's seed is its Seed
//     field, set when the job list is built — never anything drawn
//     during execution. DeriveSeed is there for experiments that spread
//     one seed over their jobs.
//
// A job's outcome is a function of its seed, never of the host: each
// job runs exactly once, on one worker goroutine, to completion. An
// error or a recovered panic (*PanicError) is the job's deterministic
// result — re-running the seed reproduces it — so it is reported, never
// retried. Around that sits a harness layer, all of it opt-in via
// Config and none of it able to change an output byte: Context cancels
// dispatch and drains in-flight work, StallAfter reports hung jobs, and
// Checkpoint journals completed results so an interrupted sweep resumes
// instead of restarting (see checkpoint.go).
// A job whose error carries the structural Degraded marker (an
// internal/guard budget trip or a liveness stall, both computed from
// the seed) becomes a Degraded result instead of a failure, so a sweep
// at hostile scale completes and reports its pathological cells rather
// than dying on them (see degrade.go).
//
// One loop runs a sweep, on the goroutine that called Run: it hands
// each idle worker its next job over that worker's one-job channel,
// takes the worker's done report back, and on a ticker reports jobs in
// flight longer than StallAfter. Once the context is canceled it stops
// handing out jobs but keeps draining and checking for stalls. It
// returns once every worker has reported its exit. The
// workers are the only other goroutines, and nothing needs a lock:
// each job's result slot is written by its worker before the done
// report and read by the loop after it.
//
// Progress events (telemetry.KSweepStart/KSweepJob/KSweepDone), the
// stall kind (KSweepStall), and the engine's
// performance telemetry (KSweepJobTime per job, KSweepWorker per
// worker, wall seconds on KSweepDone) are published by that loop
// only, in completion order; they exist for
// interactive feedback and engine profiling and are the one output of a
// sweep that is *not* covered by the determinism contract.
package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rrtcp/internal/telemetry"
)

// Job is one independent unit of a sweep: a self-contained simulation
// run identified by its position in the jobs slice.
type Job struct {
	// Name labels the job in progress events and error messages.
	Name string
	// Seed drives the job's scheduler; the engine hands it to Run
	// unchanged.
	Seed int64
	// Run executes the job with its seed and returns its result. It
	// runs on a worker goroutine and must not share mutable state with
	// any other job.
	Run func(seed int64) (any, error)
}

// Config parameterizes one Run call. The zero value of every harness
// field means "off": no cancellation, no stall check, no checkpoint — the
// engine then behaves exactly like a plain worker pool.
type Config struct {
	// Name labels the sweep in progress events and error messages.
	Name string
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Telemetry, when non-nil, receives sweep progress events. They are
	// published from the coordinating goroutine only, so the bus must
	// not be shared with a concurrently running simulation.
	Telemetry *telemetry.Bus
	// Context, when non-nil, cancels the sweep: after cancellation no
	// new jobs are dispatched, in-flight jobs drain to completion, and
	// Run returns the partial results together with an error wrapping
	// context.Cause. A nil Context never cancels.
	Context context.Context
	// StallAfter, when positive, arms the sweep loop's wall-clock
	// stall check: any job in flight longer than this is reported once
	// via a KSweepStall event (surfaced on /progress and by rrtrace
	// summary) without being interrupted. It is the harness-level
	// analogue of the sim-time invariant.StartWatchdog.
	StallAfter time.Duration
	// Checkpoint, when non-nil, journals each completed job's result
	// and pre-fills results restored by OpenJournal, so an interrupted
	// sweep resumes where it stopped. The engine touches the journal
	// only from the coordinating goroutine.
	Checkpoint *Journal
}

// DeriveSeed returns a deterministic seed for the job at index under a
// master seed, via a splitmix64-style derivation: the index steps a
// Weyl sequence from the master seed and the splitmix64
// finalizer scrambles it. Nearby (seed, index) pairs therefore yield
// statistically independent streams, and the mapping is stable across
// runs, platforms, and worker counts.
func DeriveSeed(seed int64, index int) int64 {
	z := uint64(seed) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// done is a worker's report that it finished job index: results[index]
// and errs[index] are written before it is sent. wall is the job's
// wall-clock seconds, measured only on an enabled bus. Index -1 is the
// worker's last report: it has left its loop and holds nothing of the
// sweep.
type done struct {
	index, worker int
	wall          float64
}

// slot is what the coordinator knows of one worker for the stall
// check: the job it holds (index -1 when idle), since when, and
// whether this occupancy's stall has been reported.
type slot struct {
	index    int
	start    time.Time
	reported bool
}

// Run executes the jobs across the configured worker pool and returns
// their results in job-index order. All dispatched jobs run to
// completion even if some fail; the returned error joins (via
// errors.Join, so errors.Is/As see through it) the cancellation cause
// first, then per-job failures lowest-index-first. The results slice
// is always returned — on error it holds the partial results, with nil
// at failed or never-dispatched indices.
func Run(cfg Config, jobs []Job) ([]any, error) {
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]any, n)
	errs := make([]error, n)

	// Checkpoint pre-fill: jobs a previous run already completed are
	// restored, not re-executed. Because results merge by index, the
	// final output cannot tell which run computed which job.
	pending := make([]int, 0, n)
	for i := range jobs {
		if res, ok := cfg.Checkpoint.Restored(i); ok {
			results[i] = res
			continue
		}
		pending = append(pending, i)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}

	cfg.Telemetry.Publish(telemetry.Event{
		Comp: telemetry.CompSweep, Kind: telemetry.KSweepStart,
		Src: cfg.Name, Flow: telemetry.NoFlow,
		A: float64(n), B: float64(workers),
	})

	// Wall-clock performance telemetry: per-job latency and per-worker
	// busy time. Like the progress kinds, these are measurements of the
	// engine itself — inherently nondeterministic — and ride the same
	// coordinator-only progress bus, exempt from the determinism
	// contract. Timing is gated on an enabled bus so a silent sweep
	// pays nothing.
	timed := cfg.Telemetry.Enabled()
	workerBusy := make([]float64, workers)
	workerJobs := make([]uint64, workers)
	var sweepStart time.Time
	if timed {
		sweepStart = time.Now()
	}

	var tick <-chan time.Time
	if cfg.StallAfter > 0 {
		t := time.NewTicker(min(max(cfg.StallAfter/4, 10*time.Millisecond), time.Second))
		defer t.Stop()
		tick = t.C
	}

	// The coordinator is the calling goroutine and the only one besides
	// the workers: it hands each idle worker its next job over the
	// worker's own one-job channel, takes the worker's done report back,
	// and alone publishes telemetry and appends to the journal.
	completed := n - len(pending)
	var journalErr error
	donec := make(chan done)
	work := make([]chan int, workers)
	slots := make([]slot, workers)
	next := 0
	// dispatch hands worker w the next pending job or, when none is
	// left or the sweep is canceled, closes its channel so it exits.
	// Checking ctx.Err before every hand-out means a pre-canceled sweep
	// dispatches nothing and a canceled one only drains.
	dispatch := func(w int) {
		if next == len(pending) || ctx.Err() != nil {
			slots[w].index = -1
			close(work[w])
			return
		}
		i := pending[next]
		next++
		slots[w] = slot{index: i}
		if tick != nil {
			slots[w].start = time.Now()
		}
		work[w] <- i
	}
	for w := range work {
		work[w] = make(chan int, 1)
		go func(jobc <-chan int) {
			for i := range jobc {
				var start time.Time
				if timed {
					start = time.Now()
				}
				results[i], errs[i] = runJob(jobs[i])
				d := done{index: i, worker: w}
				if timed {
					d.wall = time.Since(start).Seconds()
				}
				donec <- d
			}
			donec <- done{index: -1, worker: w}
		}(work[w])
		dispatch(w)
	}

	// Run returns only once every worker has reported its exit, so no
	// worker outlives the sweep holding its jobs and their worlds.
	for live := workers; live > 0; {
		select {
		case d := <-donec:
			if d.index < 0 {
				live--
				continue
			}
			completed++
			i := d.index
			publishJob(cfg, jobs[i].Name, i, completed, n)
			if timed {
				publishJobTime(cfg, jobs[i].Name, i, d.wall, d.worker)
				workerBusy[d.worker] += d.wall
				workerJobs[d.worker]++
			}
			switch {
			case errs[i] == nil:
				if jerr := cfg.Checkpoint.Append(i, jobs[i].Name, jobs[i].Seed, results[i]); jerr != nil && journalErr == nil {
					journalErr = jerr
				}
			case IsDegraded(errs[i]):
				// Budget trip: the job completed by degrading, not by
				// failing. Record the Degraded result, clear the error
				// (so the sweep succeeds), and skip the journal — on
				// resume the job re-runs and degrades identically, since
				// deterministic budgets are functions of the seed.
				results[i] = Degraded{Job: jobs[i].Name, Index: i, Seed: jobs[i].Seed, Err: errs[i]}
				errs[i] = nil
				cfg.Telemetry.Publish(telemetry.Event{
					Comp: telemetry.CompSweep, Kind: telemetry.KSweepDegraded,
					Src: jobs[i].Name, Flow: telemetry.NoFlow, Seq: int64(i),
				})
			}
			// The next job goes out last, just before the loop blocks
			// again: handed out first, it made paper-suite's one-worker
			// sweeps ~7 % slower on a 2-vCPU box, and it gained nothing
			// on a chaos sweep that journals or logs progress.
			dispatch(d.worker)
		case now := <-tick:
			// Stall check: report each job in flight at least
			// StallAfter once per occupancy, without interrupting it.
			// It keeps running while a canceled sweep drains.
			for w := range slots {
				s := &slots[w]
				if s.index < 0 || s.reported || now.Sub(s.start) < cfg.StallAfter {
					continue
				}
				s.reported = true
				cfg.Telemetry.Publish(telemetry.Event{
					Comp: telemetry.CompSweep, Kind: telemetry.KSweepStall,
					Src: jobs[s.index].Name, Flow: telemetry.NoFlow, Seq: int64(s.index),
					A: now.Sub(s.start).Seconds(), B: float64(w),
				})
			}
		}
	}

	var sweepWall float64
	if timed {
		sweepWall = time.Since(sweepStart).Seconds()
		for w := 0; w < workers; w++ {
			cfg.Telemetry.Publish(telemetry.Event{
				Comp: telemetry.CompSweep, Kind: telemetry.KSweepWorker,
				Src: fmt.Sprintf("%d", w), Flow: telemetry.NoFlow,
				A: workerBusy[w], B: float64(workerJobs[w]),
			})
		}
	}
	cfg.Telemetry.Publish(telemetry.Event{
		Comp: telemetry.CompSweep, Kind: telemetry.KSweepDone,
		Src: cfg.Name, Flow: telemetry.NoFlow, A: float64(completed), B: sweepWall,
	})

	// Error assembly: cancellation first (only when it actually cut the
	// sweep short), then per-job failures lowest-index-first, each naming
	// the seed that replays it, then any journal write failure.
	// errors.Join keeps every cause reachable by errors.Is/As. Every
	// dispatched job completes, so the unfinished are n - completed.
	var fail []error
	if ctx.Err() != nil && completed < n {
		fail = append(fail, fmt.Errorf("sweep %s: canceled with %d of %d jobs unfinished: %w",
			cfg.Name, n-completed, n, context.Cause(ctx)))
	}
	for i, err := range errs {
		if err != nil {
			fail = append(fail, fmt.Errorf("sweep %s: job %d (%s, seed %d): %w", cfg.Name, i, jobs[i].Name, jobs[i].Seed, err))
		}
	}
	if journalErr != nil {
		fail = append(fail, journalErr)
	}
	return results, errors.Join(fail...)
}

// PanicError is a panic recovered from a job, carrying the panic value
// and a stack snippet for repro bundles. It is an ordinary job error:
// a job is a function of its seed, so the panic recurs on every run of
// that seed, which the sweep's error wrapper names. A nil panic —
// panic(nil) — is represented by a *runtime.PanicNilError value, never
// by a bare nil, so the message stays diagnosable.
type PanicError struct {
	// Value is what the job passed to panic.
	Value any
	// Stack is a truncated goroutine stack captured at recovery.
	Stack []byte
}

// Error includes the panic value and the stack snippet.
func (e *PanicError) Error() string {
	if len(e.Stack) == 0 {
		return fmt.Sprintf("job panicked: %v", e.Value)
	}
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// stackSnippet captures the current goroutine stack, truncated at the
// first line boundary past limit bytes — enough frames to locate a
// panic without flooding a repro bundle.
func stackSnippet(limit int) []byte {
	s := debug.Stack()
	if len(s) <= limit {
		return s
	}
	if i := bytes.IndexByte(s[limit:], '\n'); i >= 0 {
		s = s[:limit+i]
	} else {
		s = s[:limit]
	}
	return append(s, []byte("\n... (stack truncated)")...)
}

// runJob executes one job, converting a panic into a *PanicError (stack
// snippet included) so a broken job cannot deadlock the pool. panic(nil)
// is normalized to *runtime.PanicNilError rather than surfacing as a
// misleading "<nil>".
func runJob(j Job) (res any, err error) {
	returned := false
	defer func() {
		if returned {
			return
		}
		r := recover()
		if r == nil {
			// Only reachable under GODEBUG=panicnil=1, where recover
			// hands panic(nil) back as a literal nil.
			r = new(runtime.PanicNilError)
		}
		res, err = nil, &PanicError{Value: r, Stack: stackSnippet(2048)}
	}()
	res, err = j.Run(j.Seed)
	returned = true
	return res, err
}

func publishJob(cfg Config, name string, index, completed, total int) {
	cfg.Telemetry.Publish(telemetry.Event{
		Comp: telemetry.CompSweep, Kind: telemetry.KSweepJob,
		Src: name, Flow: telemetry.NoFlow, Seq: int64(index),
		A: float64(completed), B: float64(total),
	})
}

func publishJobTime(cfg Config, name string, index int, wall float64, worker int) {
	cfg.Telemetry.Publish(telemetry.Event{
		Comp: telemetry.CompSweep, Kind: telemetry.KSweepJobTime,
		Src: name, Flow: telemetry.NoFlow, Seq: int64(index),
		A: wall, B: float64(worker),
	})
}

// Collect converts a sweep's []any results into their concrete type,
// failing on the first mismatch. It is the typed bridge between Run and
// an experiment's Reduce step.
func Collect[T any](results []any) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		v, ok := r.(T)
		if !ok {
			return nil, fmt.Errorf("sweep: result %d is %T, want %T", i, r, out[i])
		}
		out[i] = v
	}
	return out, nil
}
