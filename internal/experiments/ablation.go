package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// AblationVariant names one RR design choice toggled off or replaced.
type AblationVariant struct {
	Label   string       `json:"label"`
	Options core.Options `json:"options"`
}

// ablationVariants returns the design-choice matrix DESIGN.md §5 calls
// out, with the published algorithm first.
func ablationVariants() []AblationVariant {
	return []AblationVariant{
		{Label: "rr (published)", Options: core.Options{}},
		{Label: "retreat 1-per-dup (right-edge)", Options: core.Options{RetreatDupsPerSegment: 1}},
		{Label: "no further-loss detection", Options: core.Options{DisableFurtherLossDetection: true}},
		{Label: "halve on further loss", Options: core.Options{HalveOnFurtherLoss: true}},
		{Label: "exit to ssthresh (big ACK)", Options: core.Options{ExitToSsthresh: true}},
	}
}

// AblationRow is one variant's outcome on the burst-loss transfer.
type AblationRow struct {
	Variant AblationVariant `json:"variant"`
	// TransferDelay for the Figure-5-style limited transfer.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// Timeouts and Retransmits describe the recovery cost.
	Timeouts    uint32 `json:"timeouts"`
	Retransmits uint32 `json:"retransmits"`
	// ExitBurst is the largest number of data packets the sender
	// emitted within one bottleneck transmission time right after
	// leaving recovery — the "big ACK" burst measure.
	ExitBurst int `json:"exitBurst"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
}

// AblationResult aggregates the matrix.
type AblationResult struct {
	Drops int           `json:"drops"`
	Rows  []AblationRow `json:"rows"`
}

// NewAblationExperiment returns the experiment (drops <= 0 means 3):
// one job per design variant, all on the same engineered scenario — the
// Figure-5 burst-loss transfer with an extra loss injected during
// recovery so the further-loss machinery is exercised.
func NewAblationExperiment(drops int) Experiment {
	if drops <= 0 {
		drops = 3
	}
	return &grid[AblationVariant, AblationRow]{
		name:  "ablation",
		cells: ablationVariants(),
		// The scenario is fully engineered; every variant runs the same
		// fixed seed so rows differ only by the design knob.
		seeds: func(AblationVariant) []int64 { return []int64{1} },
		label: func(v AblationVariant) string { return v.Label },
		run: func(w *scenario.World, v AblationVariant, seed int64) (AblationRow, error) {
			lost := make([]int64, 0, drops+1)
			for i := 0; i < drops; i++ {
				lost = append(lost, 60+int64(i))
			}
			// A further loss hits a new data packet sent during recovery: with
			// the window at ~13 packets when the burst hits, maxseq is ~73 at
			// entry and the retreat sub-phase injects packets 73+, so drop one
			// of those.
			lost = append(lost, 75)
			err := w.Rebuild(seed, &scenario.Spec{
				Loss: &scenario.LossSpec{Drops: []scenario.FlowDrops{{Packets: lost}}},
			})
			if err != nil {
				return AblationRow{}, err
			}
			opts := v.Options
			flow, err := w.Install(workload.FlowSpec{
				Kind:            workload.RR,
				Bytes:           150 * 1000,
				Window:          18,
				InitialSSThresh: 9,
				RROptions:       &opts,
			})
			if err != nil {
				return AblationRow{}, err
			}
			flow.Trace.Record() // exitBurst reads the sends around the first exit
			w.Run(120 * time.Second)

			row := AblationRow{
				Variant:     v,
				Timeouts:    flow.Sender.Timeouts(),
				Retransmits: flow.Sender.Retransmits(),
				ExitBurst:   exitBurst(flow, w.Net),
			}
			row.TransferDelay, row.Finished = flow.Sender.TransferDelay()
			return row, nil
		},
		fold: func(outs [][]AblationRow) (Renderable, error) {
			return &AblationResult{Drops: drops, Rows: firstSeed(outs)}, nil
		},
		Config: drops,
	}
}

// exitBurst counts data packets sent within one bottleneck transmission
// time of the first recovery exit.
func exitBurst(flow *workload.Flow, d *netem.Dumbbell) int {
	samples := flow.Trace.Samples()
	var exitAt sim.Time = -1
	for _, s := range samples {
		if s.Kind == trace.EvExit {
			exitAt = s.At
			break
		}
	}
	if exitAt < 0 {
		return 0
	}
	window := d.ForwardLink().TransmissionDelay(1000)
	count := 0
	for _, s := range samples {
		if (s.Kind == trace.EvSend || s.Kind == trace.EvRetransmit) &&
			s.At >= exitAt && s.At <= exitAt+window {
			count++
		}
	}
	return count
}

// Render returns the ablation matrix as a text table.
func (r *AblationResult) Render() string {
	t := Table{
		Title:  fmt.Sprintf("RR design ablations (%d drops + 1 further loss during recovery)", r.Drops),
		Header: []string{"variant", "transfer delay", "timeouts", "rtx", "exit burst"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant.Label, delayCell(row.TransferDelay, row.Finished), fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retransmits), fmt.Sprintf("%d", row.ExitBurst))
	}
	return t.String()
}
