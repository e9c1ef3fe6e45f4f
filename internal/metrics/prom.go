package metrics

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Collector contributes metric families to a Prometheus text
// exposition. Each subsystem (WAL, durable store, shard store, trace
// recorders, the server itself) implements Collect and registers on
// the Registry, so /metrics is assembled by the owners of the state
// instead of the server hand-walking every subsystem.
//
// A Collect implementation must write whole families: declare each
// family once (Family / the typed helpers) and emit every one of its
// samples before starting the next family — the text format requires
// one contiguous group per metric name.
type Collector interface {
	Collect(e *Expo)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Expo)

// Collect calls f.
func (f CollectorFunc) Collect(e *Expo) { f(e) }

// Expo writes the Prometheus text exposition format (version 0.0.4).
// It is a thin append-only writer: errors are sticky and surfaced by
// Err, so collectors can emit unconditionally. HELP/TYPE headers are
// deduplicated per family name, letting two collectors safely share a
// family only if they emit into it back-to-back.
type Expo struct {
	w    io.Writer
	err  error
	line []byte
	seen map[string]bool
}

// NewExpo returns an exposition writer over w.
func NewExpo(w io.Writer) *Expo {
	return &Expo{w: w, seen: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (e *Expo) Err() error { return e.err }

func (e *Expo) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

// Family declares a metric family: one # HELP and one # TYPE line,
// written once per name. typ is "counter", "gauge" or "histogram".
func (e *Expo) Family(name, typ, help string) {
	if e.seen[name] {
		return
	}
	e.seen[name] = true
	e.line = e.line[:0]
	e.line = append(e.line, "# HELP "...)
	e.line = append(e.line, name...)
	e.line = append(e.line, ' ')
	e.line = append(e.line, help...)
	e.line = append(e.line, "\n# TYPE "...)
	e.line = append(e.line, name...)
	e.line = append(e.line, ' ')
	e.line = append(e.line, typ...)
	e.line = append(e.line, '\n')
	e.write(e.line)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// appendSample renders `name{k="v",...} value\n`. labels alternate
// key, value; an odd trailing key is ignored.
func (e *Expo) appendSample(name string, labels []string, value float64) {
	e.line = e.line[:0]
	e.line = append(e.line, name...)
	if len(labels) >= 2 {
		e.line = append(e.line, '{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				e.line = append(e.line, ',')
			}
			e.line = append(e.line, labels[i]...)
			e.line = append(e.line, '=', '"')
			e.line = append(e.line, escapeLabel(labels[i+1])...)
			e.line = append(e.line, '"')
		}
		e.line = append(e.line, '}')
	}
	e.line = append(e.line, ' ')
	e.line = strconv.AppendFloat(e.line, value, 'g', -1, 64)
	e.line = append(e.line, '\n')
	e.write(e.line)
}

// Sample writes one sample of an already-declared family.
func (e *Expo) Sample(name string, value float64, labels ...string) {
	e.appendSample(name, labels, value)
}

// Counter declares a single-sample counter family and writes its value.
func (e *Expo) Counter(name, help string, value float64, labels ...string) {
	e.Family(name, "counter", help)
	e.appendSample(name, labels, value)
}

// Gauge declares a single-sample gauge family and writes its value.
func (e *Expo) Gauge(name, help string, value float64, labels ...string) {
	e.Family(name, "gauge", help)
	e.appendSample(name, labels, value)
}

// HistogramFamily declares a histogram family; emit its series with
// HistogramSamples.
func (e *Expo) HistogramFamily(name, help string) {
	e.Family(name, "histogram", help)
}

// HistogramSamples writes one labeled series of a declared histogram
// family: a cumulative `_bucket{le="b"}` line per bound (the count of
// observations <= b), the +Inf bucket, then `_sum` and `_count`. The
// +Inf bucket and _count reuse the summed bucket counts, so the series
// is consistent under concurrent Observes.
func (e *Expo) HistogramSamples(name string, h *Histogram, labels ...string) {
	bucket := name + "_bucket"
	withLE := append(append(make([]string, 0, len(labels)+2), labels...), "le", "")
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if i < len(h.bounds) {
			withLE[len(withLE)-1] = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		} else {
			withLE[len(withLE)-1] = "+Inf"
		}
		e.appendSample(bucket, withLE, float64(cum))
	}
	e.appendSample(name+"_sum", labels, h.Sum())
	e.appendSample(name+"_count", labels, float64(cum))
}

// Register adds a collector to the registry's exposition. Collectors
// run in registration order on every WriteExposition call.
func (r *Registry) Register(c Collector) {
	r.collMu.Lock()
	defer r.collMu.Unlock()
	r.collectors = append(r.collectors, c)
}

// WriteExposition renders the full Prometheus text exposition: the
// registry's own per-endpoint families followed by every registered
// collector, in registration order.
func (r *Registry) WriteExposition(w io.Writer) error {
	e := NewExpo(w)
	r.Collect(e)
	r.collMu.Lock()
	colls := make([]Collector, len(r.collectors))
	copy(colls, r.collectors)
	r.collMu.Unlock()
	for _, c := range colls {
		c.Collect(e)
	}
	return e.Err()
}

// Collect writes the registry's own families: uptime plus the
// per-endpoint request/error/rejection/panic counters, inflight
// gauges, and request-duration histograms.
func (r *Registry) Collect(e *Expo) {
	r.mu.Lock()
	eps := make([]*Endpoint, 0, len(r.endpoints))
	for _, ep := range r.endpoints {
		eps = append(eps, ep)
	}
	r.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })

	e.Gauge("xqest_uptime_seconds", "Seconds since the metrics registry was created.", r.Uptime().Seconds())

	// The per-endpoint families are only declared once an endpoint
	// exists, so a fresh exposition carries no sample-less families.
	if len(eps) == 0 {
		return
	}
	counter := func(name, help string, get func(*Endpoint) float64) {
		e.Family(name, "counter", help)
		for _, ep := range eps {
			e.Sample(name, get(ep), "endpoint", ep.name)
		}
	}
	counter("xqest_http_requests_total", "Completed requests per endpoint.",
		func(ep *Endpoint) float64 { return float64(ep.requests.Load()) })
	counter("xqest_http_errors_total", "Failed requests per endpoint (status >= 400, minus rejections).",
		func(ep *Endpoint) float64 { return float64(ep.errors.Load()) })
	counter("xqest_http_rejected_total", "Deliberately rejected requests per endpoint (backpressure, drain).",
		func(ep *Endpoint) float64 { return float64(ep.rejected.Load()) })
	counter("xqest_http_panics_total", "Recovered handler panics per endpoint.",
		func(ep *Endpoint) float64 { return float64(ep.panics.Load()) })

	e.Family("xqest_http_inflight_requests", "gauge", "Requests currently being served per endpoint.")
	for _, ep := range eps {
		e.Sample("xqest_http_inflight_requests", float64(ep.inflight.Load()), "endpoint", ep.name)
	}

	e.HistogramFamily("xqest_http_request_duration_seconds", "Request latency per endpoint.")
	for _, ep := range eps {
		e.HistogramSamples("xqest_http_request_duration_seconds", ep.lat, "endpoint", ep.name)
	}
}

// CollectGoRuntime writes Go runtime families (goroutines, heap, GC).
// It reads runtime.MemStats, which briefly stops the world — fine at
// scrape cadence, not on a hot path.
func CollectGoRuntime(e *Expo) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	e.Gauge("go_gomaxprocs", "GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))
	e.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	e.Gauge("go_memstats_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(ms.HeapSys))
	e.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects))
	e.Counter("go_memstats_alloc_bytes_total", "Cumulative bytes allocated.", float64(ms.TotalAlloc))
	e.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	e.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
		float64(ms.PauseTotalNs)/float64(time.Second))
}
