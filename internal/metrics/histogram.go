package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// The three bound sets. Each is a list of ascending, inclusive bucket
// upper bounds: an observation v lands in the first bucket whose bound
// b satisfies v <= b, exactly as Prometheus reads `le="b"`, and values
// above the last bound land in the implicit +Inf bucket. The sets are
// shared by every histogram over them and must not be modified.
var (
	// LatencyBounds are durations in seconds: 1µs doubling to
	// 67.108864s (1µs·2^26), 27 bounds. The 2× ratio bounds a
	// quantile's relative error while keeping a histogram a few hundred
	// bytes.
	LatencyBounds = doubling(1e-6, 27)
	// ValueBounds are dimensionless counts (group sizes, estimated
	// answer sizes): 1 doubling to 2^20, 21 bounds.
	ValueBounds = doubling(1, 21)
	// QErrorBounds slice q-errors, max(est/real, real/est) with add-one
	// smoothing, so every observation is >= 1. A healthy estimator's
	// mass sits between 1 and 2, which is sliced finely; the tail runs
	// out to 10^6, beyond which "wrong by a million x" needs no finer
	// resolution.
	QErrorBounds = []float64{
		1, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10,
		15, 25, 50, 100, 250, 1000, 1e4, 1e6,
	}
)

// doubling returns the n bounds first·2^k, k = 0..n-1.
func doubling(first float64, n int) []float64 {
	b := make([]float64, n)
	for k := range b {
		b[k] = math.Ldexp(first, k)
	}
	return b
}

// Histogram is a fixed-bucket histogram of non-negative float64
// observations over one of the bound sets above. Each bucket is an
// atomic counter and the running sum is CAS-updated float bits, so
// Observe is lock-free and allocation-free. All methods are safe for
// concurrent use.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1: the last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the running sum
}

// NewHistogram returns an empty histogram over bounds (LatencyBounds,
// ValueBounds or QErrorBounds). The slice is retained, not copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value in the histogram's unit (seconds for
// LatencyBounds). NaN is dropped and negatives clamp to zero.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		cur := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns Sum over Count, 0 while empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}
