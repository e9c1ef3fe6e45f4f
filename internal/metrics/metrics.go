// Package metrics instruments the serving layer: atomic request
// counters and lock-free latency histograms, aggregated per endpoint
// in a Registry whose Snapshot reports QPS and tail latency
// (p50/p95/p99) for the daemon's /stats endpoint.
//
// Latency histograms reuse the estimator's own histogram machinery for
// bucketing: a histogram.Grid over log-spaced nanosecond boundaries
// plays the role the position grid plays for interval labels, and
// Grid.Bucket's binary search places each observation. Counts are
// per-bucket atomics, so Observe is wait-free and safe under heavy
// concurrent load; quantiles interpolate within the bucket holding the
// requested rank.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/histogram"
)

// latencyGridBounds spans 1µs to ~67s (1µs·2^26) with doubling
// (log-spaced) buckets, plus a catch-all first bucket for
// sub-microsecond observations — 27 buckets. That keeps a histogram's
// footprint at a few hundred bytes while bounding quantile error to
// the bucket ratio (2×).
func latencyGridBounds() []int {
	bounds := []int{0}
	// Arithmetic stays in int64: nanosecond bounds beyond ~2.1s
	// overflow a 32-bit int, so on such platforms the ladder stops at
	// the largest representable bound (longer observations clamp into
	// the top bucket).
	for ns := int64(time.Microsecond); ns <= int64(128*time.Second); ns *= 2 {
		if ns > int64(maxInt) {
			break
		}
		bounds = append(bounds, int(ns))
	}
	return bounds
}

const maxInt = int(^uint(0) >> 1)

// latencyGrid is the shared bucket partition; grids are immutable, so
// every histogram references the same one.
var latencyGrid = histogram.MustGrid(latencyGridBounds())

// LatencyHistogram is a fixed-bucket histogram of durations. All
// methods are safe for concurrent use; Observe is wait-free.
type LatencyHistogram struct {
	grid    histogram.Grid
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
}

// NewLatencyHistogram returns a histogram over the default log-spaced
// bucket partition (1µs..~67s, doubling).
func NewLatencyHistogram() *LatencyHistogram {
	return &LatencyHistogram{grid: latencyGrid, buckets: make([]atomic.Uint64, latencyGrid.Size())}
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	// Clamp in int64 before converting: int(d) would overflow a 32-bit
	// int for observations beyond ~2.1s and bucket them as 0ns.
	ns64 := int64(d)
	if ns64 < 0 {
		ns64 = 0
	}
	if ns64 >= int64(h.grid.MaxPos()) {
		ns64 = int64(h.grid.MaxPos()) - 1
	}
	h.buckets[h.grid.Bucket(int(ns64))].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(d))
	for {
		cur := h.maxNS.Load()
		if uint64(d) <= cur || h.maxNS.CompareAndSwap(cur, uint64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// LatencySummary is a point-in-time digest of a LatencyHistogram.
// Quantiles are interpolated within buckets, so they carry the bucket
// ratio (2×) as worst-case relative error.
type LatencySummary struct {
	Count    uint64        `json:"count"`
	Mean     time.Duration `json:"mean_ns"`
	P50      time.Duration `json:"p50_ns"`
	P95      time.Duration `json:"p95_ns"`
	P99      time.Duration `json:"p99_ns"`
	Max      time.Duration `json:"max_ns"`
	MeanUSec float64       `json:"mean_us"`
	P50USec  float64       `json:"p50_us"`
	P95USec  float64       `json:"p95_us"`
	P99USec  float64       `json:"p99_us"`
}

// Summary digests the histogram. Concurrent Observes may land between
// the per-bucket reads; the digest is internally consistent with the
// counts it read.
func (h *LatencyHistogram) Summary() LatencySummary {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := LatencySummary{Count: total, Max: time.Duration(h.maxNS.Load())}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(h.sumNS.Load() / total)
	s.P50 = h.quantile(counts, total, 0.50)
	s.P95 = h.quantile(counts, total, 0.95)
	s.P99 = h.quantile(counts, total, 0.99)
	if s.Max > 0 {
		// The top bucket's upper edge can exceed the largest observation
		// by up to 2×; the tracked max is a tighter cap.
		for _, q := range []*time.Duration{&s.P50, &s.P95, &s.P99} {
			if *q > s.Max {
				*q = s.Max
			}
		}
	}
	s.MeanUSec = float64(s.Mean) / float64(time.Microsecond)
	s.P50USec = float64(s.P50) / float64(time.Microsecond)
	s.P95USec = float64(s.P95) / float64(time.Microsecond)
	s.P99USec = float64(s.P99) / float64(time.Microsecond)
	return s
}

// Quantile returns the interpolated p-quantile (p in [0,1]) of the
// observations, or 0 when the histogram is empty.
func (h *LatencyHistogram) Quantile(p float64) time.Duration {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return h.quantile(counts, total, p)
}

// quantile walks the bucket counts to the one holding rank p*total and
// interpolates linearly within its [Lo, Hi) extent.
func (h *LatencyHistogram) quantile(counts []uint64, total uint64, p float64) time.Duration {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := float64(h.grid.Lo(i)), float64(h.grid.Hi(i))
			frac := (rank - cum) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += float64(c)
	}
	return time.Duration(h.grid.MaxPos())
}

// recentSlots sizes the per-second ring used for windowed QPS. It must
// exceed recentWindow by enough slack that a slot is never both read
// and rewritten for the same window.
const (
	recentSlots  = 16
	recentWindow = 10 // seconds of completed history averaged by RecentQPS
)

// Outcome classifies a completed request.
type Outcome int

const (
	// OK is a served request.
	OK Outcome = iota
	// Error is a failed request (bad input, internal failure).
	Error
	// Rejected is a deliberate refusal — backpressure or drain — the
	// system working as designed, counted apart from errors.
	Rejected
)

// OutcomeOf maps an error-ish boolean to OK/Error, for callers without
// a rejection concept.
func OutcomeOf(isErr bool) Outcome {
	if isErr {
		return Error
	}
	return OK
}

// Endpoint aggregates one endpoint's counters and latency. All methods
// are safe for concurrent use.
type Endpoint struct {
	name     string
	created  time.Time
	requests atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	panics   atomic.Uint64
	inflight atomic.Int64
	lat      *LatencyHistogram
	// recent is a ring of per-second request counts packed as
	// sec<<32|count (sec truncated to 32 bits), written lock-free by
	// End and read by RecentQPS.
	recent [recentSlots]atomic.Uint64
}

func newEndpoint(name string) *Endpoint {
	return &Endpoint{name: name, created: time.Now(), lat: NewLatencyHistogram()}
}

// Name returns the endpoint's registered name.
func (e *Endpoint) Name() string { return e.name }

// Latency exposes the endpoint's latency histogram.
func (e *Endpoint) Latency() *LatencyHistogram { return e.lat }

// RecordPanic counts one recovered handler panic. The request itself
// is also completed (as an Error) by the usual path; this counter
// exists so panics are distinguishable from ordinary failures.
func (e *Endpoint) RecordPanic() { e.panics.Add(1) }

// Panics returns the recovered-panic count.
func (e *Endpoint) Panics() uint64 { return e.panics.Load() }

// Begin marks a request in flight; End completes it.
func (e *Endpoint) Begin() { e.inflight.Add(1) }

// End completes a request begun with Begin, recording its latency d
// and outcome. now is the request's end time, taken by the caller
// with the same clock read that measured d; it picks the per-second
// slot of the recent-QPS ring.
func (e *Endpoint) End(d time.Duration, now time.Time, o Outcome) {
	e.inflight.Add(-1)
	e.requests.Add(1)
	switch o {
	case Error:
		e.errors.Add(1)
	case Rejected:
		e.rejected.Add(1)
	}
	e.lat.Observe(d)
	e.tick(now.Unix())
}

// tick bumps the current second's slot in the recent ring, claiming it
// from a stale second if necessary.
func (e *Endpoint) tick(sec int64) {
	slot := &e.recent[sec%recentSlots]
	tag := uint64(uint32(sec)) << 32
	for {
		cur := slot.Load()
		if cur>>32 == tag>>32 {
			if slot.CompareAndSwap(cur, cur+1) {
				return
			}
			continue
		}
		if slot.CompareAndSwap(cur, tag|1) {
			return
		}
	}
}

// RecentQPS averages the request rate over the last recentWindow
// completed seconds — or over the endpoint's whole life when it is
// younger than the window, so short runs are not under-reported.
func (e *Endpoint) RecentQPS() float64 {
	now := time.Now().Unix()
	window := int64(time.Since(e.created).Seconds())
	if window > recentWindow {
		window = recentWindow
	}
	if window < 1 {
		window = 1
	}
	var n uint64
	for back := int64(1); back <= window; back++ {
		sec := now - back
		cur := e.recent[sec%recentSlots].Load()
		if cur>>32 == uint64(uint32(sec)) {
			n += cur & 0xffffffff
		}
	}
	return float64(n) / float64(window)
}

// EndpointSnapshot is a point-in-time digest of one endpoint.
type EndpointSnapshot struct {
	Name      string         `json:"name"`
	Requests  uint64         `json:"requests"`
	Errors    uint64         `json:"errors"`
	Rejected  uint64         `json:"rejected"`
	Panics    uint64         `json:"panics,omitempty"`
	Inflight  int64          `json:"inflight"`
	QPS       float64        `json:"qps"`
	RecentQPS float64        `json:"recent_qps"`
	Latency   LatencySummary `json:"latency"`
}

// Registry holds one Endpoint per name and digests them all at once.
// It is also the exposition hub: subsystems Register their Collectors
// and WriteExposition (see prom.go) renders everything as Prometheus
// text.
type Registry struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*Endpoint

	collMu     sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry; its uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), endpoints: make(map[string]*Endpoint)}
}

// Endpoint returns the named endpoint, creating it on first use.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.endpoints[name]
	if !ok {
		e = newEndpoint(name)
		r.endpoints[name] = e
	}
	return e
}

// Uptime returns the time since the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Snapshot digests every endpoint, sorted by name. Lifetime QPS is
// requests over registry uptime; RecentQPS averages the last
// recentWindow seconds.
func (r *Registry) Snapshot() []EndpointSnapshot {
	r.mu.Lock()
	eps := make([]*Endpoint, 0, len(r.endpoints))
	for _, e := range r.endpoints {
		eps = append(eps, e)
	}
	r.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	uptime := r.Uptime().Seconds()
	out := make([]EndpointSnapshot, len(eps))
	for i, e := range eps {
		out[i] = EndpointSnapshot{
			Name:      e.name,
			Requests:  e.requests.Load(),
			Errors:    e.errors.Load(),
			Rejected:  e.rejected.Load(),
			Panics:    e.panics.Load(),
			Inflight:  e.inflight.Load(),
			RecentQPS: e.RecentQPS(),
			Latency:   e.lat.Summary(),
		}
		if uptime > 0 {
			out[i].QPS = float64(out[i].Requests) / uptime
		}
	}
	return out
}
