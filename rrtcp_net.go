// Network-element surface of the rrtcp facade: packets, links, queue
// disciplines, loss models, and the paper's dumbbell topology.
package rrtcp

import (
	"rrtcp/internal/netem"
)

// --- network elements ---

type (
	// Packet is a simulated TCP segment or acknowledgment.
	Packet = netem.Packet
	// Link is a point-to-point link with bandwidth and delay.
	Link = netem.Link
	// DumbbellConfig describes the paper's Figure 4 topology.
	DumbbellConfig = netem.DumbbellConfig
	// Dumbbell is the instantiated n-flow dumbbell network.
	Dumbbell = netem.Dumbbell
	// REDConfig carries the RED gateway parameters of Table 4.
	REDConfig = netem.REDConfig
)

type (
	// SeqLoss drops listed (flow, sequence) pairs exactly once — the
	// deterministic loss patterns behind the Figure 5 scenarios.
	SeqLoss = netem.SeqLoss
	// UniformLoss drops data packets i.i.d. with a fixed probability —
	// the artificial losses of the Figure 7 experiment.
	UniformLoss = netem.UniformLoss
)

// NewSeqLoss returns a deterministic loss injector, ready to be placed
// at the bottleneck via DumbbellConfig.Loss. The scheduler argument is
// unused (the injector draws no randomness); it is accepted so every
// loss constructor shares the (scheduler, params...) shape and loss
// models stay drop-in replacements for each other.
func NewSeqLoss(_ *Scheduler) *SeqLoss { return netem.NewSeqLoss(nil) }

// NewUniformLoss returns a random loss injector drawing from the
// scheduler's deterministic random source.
func NewUniformLoss(s *Scheduler, rate float64) *UniformLoss {
	return netem.NewUniformLoss(rate, s.Rand(), nil)
}

// QueueDiscipline is a gateway buffer policy (drop-tail or RED).
type QueueDiscipline = netem.QueueDiscipline

// NewDropTailQueue returns a finite FIFO measured in packets, or an
// error for a non-positive limit. Like every queue constructor it is
// scheduler-first; drop-tail draws no randomness, so the scheduler
// argument is accepted only to keep the disciplines drop-in
// replacements for each other.
func NewDropTailQueue(_ *Scheduler, limit int) (QueueDiscipline, error) {
	return netem.NewDropTail(limit)
}

// NewREDQueue returns a RED gateway queue whose drop decisions draw
// from the scheduler's deterministic random source, or an error for an
// unusable configuration (see netem.NewRED).
func NewREDQueue(s *Scheduler, cfg REDConfig) (QueueDiscipline, error) {
	return netem.NewRED(cfg, s.Rand())
}

// NewDumbbell builds the Figure 4 topology.
func NewDumbbell(s *Scheduler, cfg DumbbellConfig) (*Dumbbell, error) {
	return netem.NewDumbbell(s, cfg)
}

// PaperDropTailConfig returns the Table 3 drop-tail configuration.
func PaperDropTailConfig(flows int) DumbbellConfig {
	return netem.PaperDropTailConfig(flows)
}

// PaperREDConfig returns the Table 4 RED configuration.
func PaperREDConfig() REDConfig { return netem.PaperREDConfig() }
