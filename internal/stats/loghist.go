package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// LogHistogram is a log-bucketed histogram in the HDR-histogram family:
// fixed-size counters over geometrically spaced buckets, so recording
// is O(1) with no allocation and quantiles carry a bounded *relative*
// error instead of the unbounded absolute error of fixed-width buckets.
//
// It is the summary structure for quantities that span orders of
// magnitude — recovery-episode durations (milliseconds through the
// 64-second max-RTO regime) and sweep job latencies (microsecond jobs
// next to multi-second chaos runs) — where retaining raw samples would
// grow without bound on long sweeps.
//
// Layout: a value's binary exponent selects a decade row and its
// mantissa selects one of logSubBuckets linear sub-buckets within the
// row, giving a worst-case relative error of 1/logSubBuckets (~3% at
// the default 32). Non-positive and sub-minimum values land in a
// dedicated underflow bucket; values beyond the top land in overflow.
type LogHistogram struct {
	counts [logBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

const (
	// logSubBuckets is the linear resolution within one power of two.
	logSubBuckets = 32
	// logMinExp / logMaxExp bound the tracked binary exponents:
	// 2^-40 ≈ 9e-13 through 2^40 ≈ 1.1e12.
	logMinExp = -40
	logMaxExp = 40
	// logBuckets = underflow + exponent rows + overflow.
	logBuckets = (logMaxExp-logMinExp)*logSubBuckets + 2
)

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0 // underflow
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	if exp < logMinExp {
		return 0
	}
	if exp > logMaxExp {
		return logBuckets - 1 // overflow
	}
	sub := int((frac - 0.5) * 2 * logSubBuckets)
	if sub >= logSubBuckets {
		sub = logSubBuckets - 1
	}
	return 1 + (exp-logMinExp)*logSubBuckets + sub
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(idx int) (lo, hi float64) {
	if idx <= 0 {
		return 0, math.Ldexp(0.5, logMinExp)
	}
	if idx >= logBuckets-1 {
		return math.Ldexp(1, logMaxExp), math.Inf(1)
	}
	idx--
	exp := logMinExp + idx/logSubBuckets
	sub := idx % logSubBuckets
	lo = math.Ldexp(0.5+float64(sub)/(2*logSubBuckets), exp)
	hi = math.Ldexp(0.5+float64(sub+1)/(2*logSubBuckets), exp)
	return lo, hi
}

// Observe records one sample.
func (h *LogHistogram) Observe(v float64) {
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of recorded samples.
func (h *LogHistogram) Count() uint64 { return h.count }

// Sum reports the exact sum of recorded samples.
func (h *LogHistogram) Sum() float64 { return h.sum }

// Mean reports the exact sample mean (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest recorded sample (0 when empty).
func (h *LogHistogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded sample (0 when empty).
func (h *LogHistogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the p-th percentile (0 ≤ p ≤ 100)
// with relative error bounded by the sub-bucket resolution. The exact
// observed extremes clamp the estimate, so Quantile(0) and
// Quantile(100) are exact.
func (h *LogHistogram) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	// Rank of the target sample (1-based), then walk the cumulative
	// counts to its bucket and interpolate linearly within it.
	rank := p / 100 * float64(h.count-1)
	target := uint64(rank) + 1
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			if math.IsInf(hi, 1) {
				hi = h.max
			}
			frac := float64(target-cum) / float64(c)
			v := lo + (hi-lo)*frac
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// logHistJSON is the wire form of a LogHistogram: the scalar summary
// plus a sparse [index, count, index, count, ...] pair list, so an
// empty or narrow histogram costs a few bytes instead of 2562 zeros.
type logHistJSON struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram sparsely. It is a value-receiver
// method so histograms embedded by value in result structs round-trip
// through encoding/json regardless of addressability.
func (h LogHistogram) MarshalJSON() ([]byte, error) {
	out := logHistJSON{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, uint64(i), c)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON; it replaces the
// receiver's contents.
func (h *LogHistogram) UnmarshalJSON(data []byte) error {
	var in logHistJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Buckets)%2 != 0 {
		return fmt.Errorf("stats: odd bucket pair list (len %d)", len(in.Buckets))
	}
	*h = LogHistogram{count: in.Count, sum: in.Sum, min: in.Min, max: in.Max}
	for i := 0; i < len(in.Buckets); i += 2 {
		idx := in.Buckets[i]
		if idx >= logBuckets {
			return fmt.Errorf("stats: bucket index %d out of range", idx)
		}
		h.counts[idx] = in.Buckets[i+1]
	}
	return nil
}

// Merge folds the samples of o into h. Sums and counts stay exact;
// min/max track the union.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}
