package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must have
// beyond it: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and whether the sample is large enough to report
// it: at least minTail samples must lie beyond the rank. The input is
// sorted in place.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	return samples[rank], n-1-rank >= minTail
}

// median of values (the mean of the middle two for an even count); the
// input is sorted in place.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// window is one measured second of a closed-loop run. Rates and
// percentiles are computed per window and reported as the median over
// windows, so a burst of interference from other tenants of a shared
// machine moves a few windows, not the reported figure. CPU per
// operation is the whole run's, so intermittent background work
// (compaction, folds, garbage collection) is charged in full.
type window struct {
	ops      int
	other    int // other operations completed in the window (CPU per op only)
	wall     time.Duration
	cpu      time.Duration
	p50, p99 float64 // microseconds
	tailOK   bool    // minTail samples lie beyond the p99
}

// closeWindow computes the window's percentiles from its latency
// samples (microseconds), reordering them.
func (w *window) closeWindow(latency []float64) {
	w.p50, _ = percentile(latency, 0.50)
	w.p99, w.tailOK = percentile(latency, 0.99)
}

// windowSummary is the median over windows of each per-window figure
// and the run's CPU per operation.
type windowSummary struct {
	opsPerSec float64
	p50us     float64
	p99us     float64
	cpuPerOp  float64 // microseconds of process CPU per operation
	samples   int     // latency samples across all windows
	minWindow int     // latency samples in the smallest window
	tailOK    bool    // every window has minTail samples beyond its p99
	windows   int
}

func summarize(ws []window) windowSummary {
	var rates, p50s, p99s []float64
	var cpu time.Duration
	var ops int
	s := windowSummary{tailOK: true, minWindow: math.MaxInt}
	for _, w := range ws {
		if w.ops == 0 || w.wall <= 0 {
			continue
		}
		rates = append(rates, float64(w.ops)/w.wall.Seconds())
		p50s = append(p50s, w.p50)
		p99s = append(p99s, w.p99)
		cpu += w.cpu
		ops += w.ops + w.other
		s.samples += w.ops
		s.minWindow = min(s.minWindow, w.ops)
		s.tailOK = s.tailOK && w.tailOK
	}
	s.windows = len(rates)
	if s.windows == 0 {
		return windowSummary{}
	}
	s.opsPerSec, s.p50us, s.p99us = median(rates), median(p50s), median(p99s)
	s.cpuPerOp = micros(cpu) / float64(ops)
	return s
}

// env describes the sample behind a summary for the environment block.
func (s windowSummary) env() map[string]any {
	return map[string]any{
		"windows":            s.windows,
		"window_ms":          windowLen.Milliseconds(),
		"latency_samples":    s.samples,
		"min_window_samples": s.minWindow,
		"p99_tail_ok":        s.tailOK,
	}
}

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
