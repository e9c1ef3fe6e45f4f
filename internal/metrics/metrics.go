// Package metrics instruments the serving layer: atomic request
// counters and lock-free histograms, aggregated per endpoint in a
// Registry that gathers every registered Collector into one list of
// families (prom.go, gather.go). The daemon renders that one gather
// twice: as Prometheus text for /metrics and as JSON for /stats.
//
// There is one histogram type (histogram.go): a bucket array over
// inclusive upper bounds, gathered as `_bucket{le=...}` series;
// Families.Quantile reads a quantile back from those series.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
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
	requests atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	panics   atomic.Uint64
	inflight atomic.Int64
	lat      *Histogram // seconds
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
// and outcome.
func (e *Endpoint) End(d time.Duration, o Outcome) {
	e.inflight.Add(-1)
	e.requests.Add(1)
	switch o {
	case Error:
		e.errors.Add(1)
	case Rejected:
		e.rejected.Add(1)
	}
	e.lat.Observe(d.Seconds())
}

// Registry holds one Endpoint per name and is the gather hub:
// subsystems Register their Collectors and Gather collects everything.
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
		e = &Endpoint{name: name, lat: NewHistogram(LatencyBounds)}
		r.endpoints[name] = e
	}
	return e
}

// Uptime returns the time since the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }
