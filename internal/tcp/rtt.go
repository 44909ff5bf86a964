package tcp

import (
	"time"

	"rrtcp/internal/sim"
)

// Classic BSD coarse-grained timer constants. The 500 ms tick is what
// makes the paper's "coarse timeouts" so expensive: the minimum RTO is
// two ticks, so a stalled recovery idles the link for about a second.
const (
	// TimerGranularity is the coarse clock tick.
	TimerGranularity = 500 * time.Millisecond
	// MinRTO is the smallest retransmission timeout.
	MinRTO = 2 * TimerGranularity
	// MaxRTO caps exponential backoff.
	MaxRTO = 64 * time.Second
)

// rttEstimator implements the Jacobson/Karels smoothed RTT estimate
// with Karn's algorithm handled by the caller (samples are only fed for
// segments that were not retransmitted).
type rttEstimator struct {
	srtt    float64 // seconds
	rttvar  float64 // seconds
	sampled bool
}

// sample folds one RTT measurement into the estimate.
func (e *rttEstimator) sample(rtt sim.Time) {
	s := rtt.Seconds()
	if s < 0 {
		return
	}
	if !e.sampled {
		e.srtt = s
		e.rttvar = s / 2
		e.sampled = true
		return
	}
	const alpha, beta = 1.0 / 8, 1.0 / 4
	diff := s - e.srtt
	if diff < 0 {
		diff = -diff
	}
	// Each product is rounded on its own (float64(...)) so no
	// architecture fuses it into a multiply-add: the estimate, and every
	// timeout built on it, is the same bit for bit on amd64 and arm64.
	e.rttvar = float64((1-beta)*e.rttvar) + float64(beta*diff)
	e.srtt = float64((1-alpha)*e.srtt) + float64(alpha*s)
}

// rto returns the current retransmission timeout, rounded up to the
// coarse tick and clamped to [MinRTO, MaxRTO].
func (e *rttEstimator) rto() sim.Time {
	if !e.sampled {
		return 3 * time.Second // RFC 1122 initial RTO
	}
	raw := sim.Time((e.srtt + float64(4*e.rttvar)) * float64(time.Second))
	// Round up to the timer granularity, as a BSD-style slow timer
	// would observe it.
	ticks := (raw + TimerGranularity - 1) / TimerGranularity
	rto := ticks * TimerGranularity
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// SRTT exposes the smoothed estimate in seconds (0 until sampled).
func (e *rttEstimator) SRTT() float64 { return e.srtt }
