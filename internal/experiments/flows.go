package experiments

import (
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
)

// flowTally is the per-job half of the flow-analytics layer: a private
// flowstats table fed by the job's own bus and reduced to the Summary
// the job result carries, so Reduce can merge summaries in job order
// and the report is byte-identical at any worker count. The zero value
// is "flow stats off": no table, no sink, a nil summary.
type flowTally struct{ table *flowstats.FlowTable }

func newFlowTally(on bool, exemplars int, seed int64) flowTally {
	if !on {
		return flowTally{}
	}
	return flowTally{flowstats.New(flowstats.Config{Exemplars: exemplars, Seed: seed})}
}

// sinks returns what the job's bus must additionally feed.
func (f flowTally) sinks() []telemetry.Sink {
	if f.table == nil {
		return nil
	}
	return []telemetry.Sink{f.table}
}

// summary closes the fairness windows up to the last event the table
// saw and returns its summary.
func (f flowTally) summary() *flowstats.Summary {
	if f.table == nil {
		return nil
	}
	f.table.Finalize()
	s := f.table.Summary()
	return &s
}

// mergeFlows folds one job's summary into the sweep's total.
func mergeFlows(total **flowstats.Summary, job *flowstats.Summary) {
	if job == nil {
		return
	}
	if *total == nil {
		*total = &flowstats.Summary{}
	}
	(*total).Merge(*job)
}

// flowReport computes the report of a merged summary, or a zero report
// when flow stats were not enabled.
func flowReport(total *flowstats.Summary) flowstats.Report {
	if total == nil {
		return flowstats.Report{}
	}
	return total.Report()
}
