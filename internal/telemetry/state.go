package telemetry

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SweepStats is the one fold of the sweep lifecycle stream
// (sweep-start/-job/-job-time/-worker/-stall/-degraded/-done): rrtrace
// summary keeps one per sweep of a -progress-events log, and /progress
// serves the latest. The JSON tags are /progress's keys.
type SweepStats struct {
	Name string `json:"sweep,omitempty"`
	// Jobs and Workers are the sweep's totals from sweep-start.
	Jobs    int `json:"jobs"`
	Workers int `json:"workers"`
	// Completed counts finished jobs, restored ones included; below Jobs
	// after sweep-done when the sweep was interrupted.
	Completed int `json:"completed"`
	// LastJob names the most recently finished job; LastIndex is its
	// position in the job list.
	LastJob   string  `json:"last_job,omitempty"`
	LastIndex int     `json:"last_index"`
	WallS     float64 `json:"wall_s"` // from sweep-done; live on /progress while active
	// Per-job wall-latency distribution from sweep-job-time events.
	JobTimeMeanS float64       `json:"job_wall_mean_s"`
	JobTimeMaxS  float64       `json:"job_wall_max_s"`
	PerWorker    []WorkerStats `json:"per_worker,omitempty"` // sorted by worker
	// Degraded counts budget-tripped jobs converted into Degraded
	// results; Stalls counts stall detections; Stalled lists the jobs
	// still in flight past the stall threshold, in stall-event order.
	Degraded int          `json:"degraded,omitempty"`
	Stalled  []StalledJob `json:"stalled,omitempty"`
	Stalls   int          `json:"-"`
	JobTimeN int          `json:"-"`
	Done     bool         `json:"-"`

	seq        int // sweeps begun in the stream, this one included
	jobTimeSum float64
}

// WorkerStats is one worker's share of a sweep: summed from its
// sweep-job-time events, then replaced by its sweep-worker totals.
type WorkerStats struct {
	Worker int     `json:"-"`
	Jobs   int     `json:"jobs"`
	BusyS  float64 `json:"busy_s"` // wall-clock seconds spent inside jobs
}

// StalledJob is one in-flight job past the sweep engine's stall
// threshold (a sweep-stall event). It leaves the list when the job
// completes.
type StalledJob struct {
	Job      string  `json:"job"`
	Index    int     `json:"index"`
	Worker   int     `json:"worker"`
	RunningS float64 `json:"running_s"` // at the latest stall event
}

// open reports whether a sweep has begun and not yet ended.
func (s *SweepStats) open() bool { return s.seq > 0 && !s.Done }

// apply folds one sweep event into s. A sweep-start begins the next
// sweep in place; so does any other event when no sweep is open (a log
// cut at its head, or a sweep-start lost to damage).
func (s *SweepStats) apply(ev Event) {
	if ev.Kind == KSweepStart || !s.open() {
		*s = SweepStats{seq: s.seq + 1, LastIndex: -1}
	}
	switch ev.Kind {
	case KSweepStart:
		s.Name, s.Jobs, s.Workers = ev.Src, int(ev.A), int(ev.B)
	case KSweepJob:
		s.Completed, s.LastJob, s.LastIndex = int(ev.A), ev.Src, int(ev.Seq)
		if s.Jobs == 0 {
			s.Jobs = int(ev.B)
		}
		s.Stalled = slices.DeleteFunc(s.Stalled, func(j StalledJob) bool { return j.Index == int(ev.Seq) })
	case KSweepJobTime:
		s.jobTimeSum += ev.A
		s.JobTimeN++
		s.JobTimeMeanS = s.jobTimeSum / float64(s.JobTimeN)
		s.JobTimeMaxS = max(s.JobTimeMaxS, ev.A)
		if w := int(ev.B); w >= 0 {
			ws := s.worker(w)
			ws.Jobs++
			ws.BusyS += ev.A
		}
	case KSweepWorker:
		if w, err := strconv.Atoi(ev.Src); err == nil && w >= 0 {
			*s.worker(w) = WorkerStats{Worker: w, Jobs: int(ev.B), BusyS: ev.A}
		}
	case KSweepStall:
		s.Stalls++
		// Repeated stalls of one attempt refresh its entry.
		j := StalledJob{Job: ev.Src, Index: int(ev.Seq), Worker: int(ev.B), RunningS: ev.A}
		if i := slices.IndexFunc(s.Stalled, func(o StalledJob) bool { return o.Index == j.Index }); i >= 0 {
			s.Stalled[i] = j
		} else {
			s.Stalled = append(s.Stalled, j)
		}
	case KSweepDegraded:
		s.Degraded++
	case KSweepDone:
		if s.Name == "" {
			s.Name = ev.Src
		}
		s.Completed, s.WallS, s.Done, s.Stalled = int(ev.A), ev.B, true, nil
	}
}

// worker returns worker w's entry, added in order on first sight. The
// list grows with the events naming workers, never with a claimed
// worker count or id.
func (s *SweepStats) worker(w int) *WorkerStats {
	i := sort.Search(len(s.PerWorker), func(i int) bool { return s.PerWorker[i].Worker >= w })
	if i == len(s.PerWorker) || s.PerWorker[i].Worker != w {
		s.PerWorker = slices.Insert(s.PerWorker, i, WorkerStats{Worker: w})
	}
	return &s.PerWorker[i]
}

// ProgressState is the sink the introspection server's /progress
// endpoint reads: the latest sweep's SweepStats behind a lock. Emit
// follows the usual sink contract (the sweep coordinator publishes);
// Snapshot may be called concurrently from any goroutine.
type ProgressState struct {
	mu    sync.Mutex
	sweep SweepStats
	start time.Time // wall clock at sweep-start, for live elapsed time
}

// ProgressSnapshot is /progress's document: the running (or last
// finished) sweep and how many sweeps have finished in this process
// (rrsim all runs several back to back).
type ProgressSnapshot struct {
	Active bool `json:"active"`
	SweepStats
	SweepsDone int `json:"sweeps_done"`
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
	if ev.Kind == KSweepStart {
		p.start = time.Now()
	}
	p.sweep.apply(ev)
}

// Snapshot returns a copy of the current state, with per_worker padded
// to one entry per worker; safe to call from any goroutine while the
// sweep keeps publishing.
func (p *ProgressState) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{Active: p.sweep.open(), SweepStats: p.sweep, SweepsDone: p.sweep.seq}
	if s.Active {
		s.SweepsDone--
		s.WallS = time.Since(p.start).Seconds()
	}
	s.PerWorker = make([]WorkerStats, s.Workers)
	for i := range s.PerWorker {
		s.PerWorker[i].Worker = i
	}
	for _, w := range p.sweep.PerWorker {
		if w.Worker < s.Workers {
			s.PerWorker[w.Worker] = w
		}
	}
	s.Stalled = slices.Clone(p.sweep.Stalled)
	return s
}
