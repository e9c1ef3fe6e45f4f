// Package metrics instruments the serving layer: atomic request
// counters and lock-free histograms, aggregated per endpoint in a
// Registry whose Snapshot reports QPS and latency digests for the
// daemon's /stats endpoint, and a Prometheus text exposition (prom.go)
// for /metrics.
//
// There is one histogram type (histogram.go): a bucket array over
// inclusive upper bounds, read by /stats as a Summary and by /metrics
// as `_bucket{le=...}` series, in the same unit.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

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
	lat      *Histogram // seconds
	// recent is a ring of per-second request counts packed as
	// sec<<32|count (sec truncated to 32 bits), written lock-free by
	// End and read by RecentQPS.
	recent [recentSlots]atomic.Uint64
}

func newEndpoint(name string) *Endpoint {
	return &Endpoint{name: name, created: time.Now(), lat: NewHistogram(LatencyBounds)}
}

// Name returns the endpoint's registered name.
func (e *Endpoint) Name() string { return e.name }

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
	e.lat.Observe(d.Seconds())
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
	Name      string  `json:"name"`
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	Rejected  uint64  `json:"rejected"`
	Panics    uint64  `json:"panics,omitempty"`
	Inflight  int64   `json:"inflight"`
	QPS       float64 `json:"qps"`
	RecentQPS float64 `json:"recent_qps"`
	Latency   Summary `json:"latency"` // seconds
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
