package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// ProgressState is a concurrency-safe materialized view of the sweep
// progress stream (KSweepStart/KSweepJob/KSweepJobTime/KSweepWorker/
// KSweepDone): the sink the introspection server's /progress endpoint
// reads. Emit follows the usual sink contract (one goroutine at a
// time, the sweep coordinator); Snapshot may be called concurrently
// from any goroutine — typically an HTTP handler — so the state locks
// where the event-bus sinks normally need not.
type ProgressState struct {
	mu    sync.Mutex
	snap  ProgressSnapshot
	start time.Time // wall clock at KSweepStart, for live elapsed time
}

// StalledJob is one in-flight job currently past the sweep engine's
// stall threshold — the /progress view of a KSweepStall event. A job
// leaves the list when it completes (KSweepJob for its index).
type StalledJob struct {
	// Job names the stuck job; Index is its position in the job list.
	Job   string `json:"job"`
	Index int    `json:"index"`
	// Worker is the worker the attempt is wedged on.
	Worker int `json:"worker"`
	// RunningS is how long the attempt had been running at the last
	// stall event.
	RunningS float64 `json:"running_s"`
}

// WorkerProgress is one worker's accumulated share of a sweep.
type WorkerProgress struct {
	// Jobs counts jobs the worker has finished.
	Jobs int `json:"jobs"`
	// BusyS is wall-clock seconds the worker spent inside jobs.
	BusyS float64 `json:"busy_s"`
}

// ProgressSnapshot is a point-in-time copy of sweep progress, shaped
// for JSON.
type ProgressSnapshot struct {
	// Active reports whether a sweep is currently running.
	Active bool `json:"active"`
	// Sweep is the running (or last finished) sweep's name.
	Sweep string `json:"sweep,omitempty"`
	// Jobs and Workers are the sweep's totals from KSweepStart.
	Jobs    int `json:"jobs"`
	Workers int `json:"workers"`
	// Completed counts finished jobs so far.
	Completed int `json:"completed"`
	// LastJob names the most recently finished job; LastIndex is its
	// position in the job list.
	LastJob   string `json:"last_job,omitempty"`
	LastIndex int    `json:"last_index"`
	// WallS is elapsed wall seconds: live while Active, final after.
	WallS float64 `json:"wall_s"`
	// JobWallMeanS / JobWallMaxS summarize per-job wall latency.
	JobWallMeanS float64 `json:"job_wall_mean_s"`
	JobWallMaxS  float64 `json:"job_wall_max_s"`
	// PerWorker is indexed by worker id.
	PerWorker []WorkerProgress `json:"per_worker,omitempty"`
	// Degraded counts jobs whose resource-budget trips were converted
	// into Degraded results (KSweepDegraded events).
	Degraded int `json:"degraded,omitempty"`
	// Stalled lists in-flight jobs currently past the stall threshold,
	// in stall-event order.
	Stalled []StalledJob `json:"stalled,omitempty"`
	// SweepsDone counts completed sweeps over the process lifetime
	// (rrsim all runs several back to back).
	SweepsDone int `json:"sweeps_done"`

	jobWallSum float64
	jobWallN   int
}

// NewProgressState returns an empty state, ready to subscribe to the
// sweep's progress bus.
func NewProgressState() *ProgressState { return &ProgressState{} }

// Emit implements Sink.
func (p *ProgressState) Emit(ev Event) {
	if p == nil || ev.Comp != CompSweep {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case KSweepStart:
		done := p.snap.SweepsDone
		p.snap = ProgressSnapshot{
			Active:     true,
			Sweep:      ev.Src,
			Jobs:       int(ev.A),
			Workers:    int(ev.B),
			LastIndex:  -1,
			SweepsDone: done,
			PerWorker:  make([]WorkerProgress, int(ev.B)),
		}
		p.start = time.Now()
	case KSweepJob:
		p.snap.Completed = int(ev.A)
		p.snap.LastJob = ev.Src
		p.snap.LastIndex = int(ev.Seq)
		p.dropStalled(int(ev.Seq))
	case KSweepJobTime:
		p.snap.jobWallSum += ev.A
		p.snap.jobWallN++
		if ev.A > p.snap.JobWallMaxS {
			p.snap.JobWallMaxS = ev.A
		}
		if w := int(ev.B); w >= 0 && w < len(p.snap.PerWorker) {
			p.snap.PerWorker[w].Jobs++
			p.snap.PerWorker[w].BusyS += ev.A
		}
	case KSweepWorker:
		// Authoritative end-of-sweep totals; Src is the worker index.
		if w, err := strconv.Atoi(ev.Src); err == nil && w >= 0 && w < len(p.snap.PerWorker) {
			p.snap.PerWorker[w] = WorkerProgress{Jobs: int(ev.B), BusyS: ev.A}
		}
	case KSweepStall:
		// Upsert by index: repeated stall events for the same wedged
		// attempt refresh the running time instead of duplicating.
		idx := int(ev.Seq)
		for i := range p.snap.Stalled {
			if p.snap.Stalled[i].Index == idx {
				p.snap.Stalled[i].RunningS = ev.A
				p.snap.Stalled[i].Worker = int(ev.B)
				return
			}
		}
		p.snap.Stalled = append(p.snap.Stalled, StalledJob{
			Job: ev.Src, Index: idx, Worker: int(ev.B), RunningS: ev.A,
		})
	case KSweepDegraded:
		p.snap.Degraded++
		p.dropStalled(int(ev.Seq))
	case KSweepDone:
		p.snap.Active = false
		p.snap.Completed = int(ev.A)
		p.snap.Stalled = nil
		if ev.B > 0 {
			p.snap.WallS = ev.B
		} else if !p.start.IsZero() {
			p.snap.WallS = time.Since(p.start).Seconds()
		}
		p.snap.SweepsDone++
	}
}

// dropStalled removes the stalled entry for a job index, if present.
// Callers hold p.mu.
func (p *ProgressState) dropStalled(index int) {
	for i := range p.snap.Stalled {
		if p.snap.Stalled[i].Index == index {
			p.snap.Stalled = append(p.snap.Stalled[:i], p.snap.Stalled[i+1:]...)
			return
		}
	}
}

// Snapshot returns a copy of the current state; safe to call from any
// goroutine while the sweep keeps publishing.
func (p *ProgressState) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snap
	s.PerWorker = append([]WorkerProgress(nil), p.snap.PerWorker...)
	if len(p.snap.Stalled) > 0 {
		s.Stalled = append([]StalledJob(nil), p.snap.Stalled...)
	}
	if s.Active && !p.start.IsZero() {
		s.WallS = time.Since(p.start).Seconds()
	}
	if s.jobWallN > 0 {
		s.JobWallMeanS = s.jobWallSum / float64(s.jobWallN)
	}
	return s
}
