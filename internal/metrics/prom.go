package metrics

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Collector contributes metric families to a gather. Each subsystem
// (WAL, durable store, shard store, trace recorders, the server
// itself) implements Collect and registers on the Registry, so /stats
// and /metrics are assembled by the owners of the state instead of the
// server hand-walking every subsystem.
//
// A Collect implementation must write whole families: declare each
// family once (Family / the typed helpers) and emit every one of its
// samples before starting the next family.
type Collector interface {
	Collect(e *Expo)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Expo)

// Collect calls f.
func (f CollectorFunc) Collect(e *Expo) { f(e) }

// Expo records the families collectors emit, in emission order, for
// one gather (see Gather). A family declared again — by a second
// collector, or by a helper called in a loop — is not duplicated: its
// later samples join the family already recorded.
type Expo struct {
	fams  Families
	index map[string]int
	cur   int // index of the family Sample adds to
}

// Family declares a metric family, recorded once per name. typ is
// "counter", "gauge" or "histogram". Later Samples belong to it.
func (e *Expo) Family(name, typ, help string) {
	if i, ok := e.index[name]; ok {
		e.cur = i
		return
	}
	if e.index == nil {
		e.index = make(map[string]int)
	}
	e.cur = len(e.fams)
	e.index[name] = e.cur
	e.fams = append(e.fams, Family{Name: name, Type: typ, Help: help})
}

// add appends one sample to the current family, taking ownership of
// labels.
func (e *Expo) add(name string, labels []string, value float64) {
	f := &e.fams[e.cur]
	f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: value})
}

// Sample records one sample of the most recently declared family.
// labels alternate key, value; an odd trailing key is ignored.
func (e *Expo) Sample(name string, value float64, labels ...string) {
	e.add(name, append([]string(nil), labels[:len(labels)&^1]...), value)
}

// Counter declares a single-sample counter family and records its value.
func (e *Expo) Counter(name, help string, value float64, labels ...string) {
	e.Family(name, "counter", help)
	e.Sample(name, value, labels...)
}

// Gauge declares a single-sample gauge family and records its value.
func (e *Expo) Gauge(name, help string, value float64, labels ...string) {
	e.Family(name, "gauge", help)
	e.Sample(name, value, labels...)
}

// HistogramFamily declares a histogram family; emit its series with
// HistogramSamples.
func (e *Expo) HistogramFamily(name, help string) {
	e.Family(name, "histogram", help)
}

// HistogramSamples records one labeled series of a declared histogram
// family: a cumulative `_bucket{le="b"}` sample per bound (the count of
// observations <= b), the +Inf bucket, then `_sum` and `_count`. The
// +Inf bucket and _count reuse the summed bucket counts, so the series
// is consistent under concurrent Observes.
func (e *Expo) HistogramSamples(name string, h *Histogram, labels ...string) {
	labels = labels[:len(labels)&^1]
	bucket := name + "_bucket"
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		e.add(bucket, append(append(make([]string, 0, len(labels)+2), labels...), "le", le), float64(cum))
	}
	e.Sample(name+"_sum", h.Sum(), labels...)
	e.Sample(name+"_count", float64(cum), labels...)
}

// Gather runs the collectors, in order, into one gather.
func Gather(cs ...Collector) Families {
	var e Expo
	for _, c := range cs {
		c.Collect(&e)
	}
	return e.fams
}

// Register adds a collector to the registry's gather. Collectors run
// in registration order on every Gather call.
func (r *Registry) Register(c Collector) {
	r.collMu.Lock()
	defer r.collMu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather collects the registry's own per-endpoint families followed by
// every registered collector, in registration order. It is the one
// source both encodings render: WriteText for /metrics and JSON for
// /stats.
func (r *Registry) Gather() Families {
	r.collMu.Lock()
	cs := append([]Collector{CollectorFunc(r.Collect)}, r.collectors...)
	r.collMu.Unlock()
	return Gather(cs...)
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
	// exists, so a fresh gather carries no sample-less families.
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
