// Package model provides the analytic TCP throughput models the paper
// uses in Section 4: the square-root ("macroscopic") model of Mathis,
// Semke, Mahdavi & Ott (1997), which upper-bounds steady-state
// congestion-avoidance throughput as a function of loss rate and RTT,
// and the refinement of Padhye, Firoiu, Towsley & Kurose (1998) that
// also captures retransmission timeouts.
package model

import "math"

// CAckEveryPacket is the Mathis constant C = sqrt(3/2) for a receiver
// that acknowledges every data packet — the configuration of the
// paper's Figure 7 experiment.
const CAckEveryPacket = 1.2247448713915890

// CDelayedAck is the constant C = sqrt(3/4) for a receiver that
// acknowledges every other packet.
const CDelayedAck = 0.8660254037844386

// SqrtWindow returns the square-root model's upper bound on the mean
// congestion window in packets: W = C / sqrt(p). This is the quantity
// BW*RTT/MSS plotted on the y-axis of Figure 7.
func SqrtWindow(p, c float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return c / math.Sqrt(p)
}

// PadhyeThroughputPps returns the Padhye et al. steady-state throughput
// in packets per second, including the timeout term:
//
//	B(p) = 1 / ( RTT*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))*p*(1+32p²) )
//
// where b is the number of packets acknowledged per ACK (1 here) and T0
// is the base retransmission timeout in seconds.
func PadhyeThroughputPps(rttSeconds, t0Seconds, p float64, b int) float64 {
	if p <= 0 || rttSeconds <= 0 {
		return 0
	}
	fb := float64(b)
	denom := rttSeconds*math.Sqrt(2*fb*p/3) +
		t0Seconds*math.Min(1, 3*math.Sqrt(3*fb*p/8))*p*(1+32*p*p)
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// PadhyeWindow converts the Padhye throughput to a window in packets
// (throughput × RTT), for plotting on the same axes as SqrtWindow.
func PadhyeWindow(rttSeconds, t0Seconds, p float64, b int) float64 {
	return PadhyeThroughputPps(rttSeconds, t0Seconds, p, b) * rttSeconds
}
