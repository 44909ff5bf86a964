package sweep

import (
	"errors"
	"fmt"
)

// Graceful degradation: a job that trips a resource budget
// (internal/guard's *OverloadError, or anything else carrying the
// structural Degraded marker) has not failed — it has produced a
// *reportable outcome*. Re-running it reproduces the same trip (the
// budgets are functions of the seed); failing the whole sweep over it
// defeats the point of budgets, which is to let a scale experiment
// survive its pathological cells. The engine therefore converts such
// jobs into Degraded results: the sweep completes, Reduce sees every
// index, and the report says which cells degraded and why.

// degrader is the structural marker for budget-tripped errors,
// discovered on the Unwrap chain by IsDegraded.
type degrader interface{ Degraded() bool }

// IsDegraded reports whether err carries the Degraded marker anywhere
// in its Unwrap chain — a resource-budget trip that should become a
// Degraded result rather than a sweep failure.
func IsDegraded(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if d, ok := e.(degrader); ok {
			return d.Degraded()
		}
	}
	return false
}

// Degraded is the result slot of a job whose error carried the
// Degraded marker: the sweep records it in results[index] (in place of
// the job's normal result), publishes a KSweepDegraded event, and does
// NOT count the job as failed. A Reduce that may see budgets must
// handle this type.
//
// Degraded results are not checkpointed: on resume the job re-runs and
// — the deterministic budgets being functions of the seed — degrades
// identically, so the resumed output stays byte-identical anyway.
type Degraded struct {
	// Job names the degraded job; Index is its position in the job
	// list; Seed is the seed it ran under.
	Job   string `json:"job"`
	Index int    `json:"index"`
	Seed  int64  `json:"seed"`
	// Err is the error carrying the Degraded marker (typically wrapping
	// a *guard.OverloadError); errors.As digs the typed cause out.
	Err error `json:"-"`
}

// String summarizes the degradation.
func (d Degraded) String() string {
	return fmt.Sprintf("job %d (%s) degraded: %v", d.Index, d.Job, d.Err)
}
