package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// 100 observations at 10µs, 900 at 1ms: p50 and p95 must land in
	// the 1ms bucket, p05 in the 10µs one.
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 900; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	p05 := h.Quantile(0.05)
	if p05 < 8*time.Microsecond || p05 > 16*time.Microsecond {
		t.Errorf("p05 = %v, want within the 8-16µs bucket", p05)
	}
	for _, p := range []float64{0.5, 0.95} {
		q := h.Quantile(p)
		if q < 512*time.Microsecond || q > 2*time.Millisecond {
			t.Errorf("q(%v) = %v, want within a 2x bucket of 1ms", p, q)
		}
	}
	s := h.Summary()
	if s.Max != time.Millisecond {
		t.Errorf("Max = %v, want 1ms", s.Max)
	}
	if s.P99 > s.Max {
		t.Errorf("P99 %v exceeds tracked max %v", s.P99, s.Max)
	}
	if s.Mean <= 100*time.Microsecond || s.Mean >= time.Millisecond {
		t.Errorf("Mean = %v, want between 100µs and 1ms", s.Mean)
	}
}

func TestLatencyHistogramEmptyAndExtremes(t *testing.T) {
	h := NewLatencyHistogram()
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	if s := h.Summary(); s.Count != 0 || s.P99 != 0 {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
	// Out-of-range observations clamp into the edge buckets instead of
	// panicking.
	h.Observe(-time.Second)
	h.Observe(time.Nanosecond)
	h.Observe(10 * time.Minute)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if q := h.Quantile(1.0); q > 10*time.Minute {
		t.Errorf("q(1.0) = %v, want capped at the observed max", q)
	}
}

func TestEndpointCountersAndErrors(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("estimate")
	if again := r.Endpoint("estimate"); again != e {
		t.Fatal("Endpoint is not idempotent per name")
	}
	for _, o := range []Outcome{OK, Error, Rejected} {
		e.Begin()
		e.End(time.Millisecond, time.Now(), o)
	}
	e.Begin()
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot has %d endpoints, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Name != "estimate" || s.Requests != 3 || s.Errors != 1 || s.Rejected != 1 || s.Inflight != 1 {
		t.Errorf("snapshot = %+v, want name=estimate requests=3 errors=1 rejected=1 inflight=1", s)
	}
	e.End(time.Millisecond, time.Now(), OK)
	s = r.Snapshot()[0]
	if s.Requests != 4 || s.Inflight != 0 {
		t.Errorf("after done: requests=%d inflight=%d, want 4 and 0", s.Requests, s.Inflight)
	}
	if s.QPS <= 0 {
		t.Errorf("lifetime QPS = %v, want > 0", s.QPS)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("stress")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Begin()
				e.End(time.Microsecond, time.Now(), OutcomeOf(i%10 == 0))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()[0]
	if s.Requests != workers*per {
		t.Errorf("Requests = %d, want %d", s.Requests, workers*per)
	}
	if s.Errors != workers*per/10 {
		t.Errorf("Errors = %d, want %d", s.Errors, workers*per/10)
	}
	if s.Inflight != 0 {
		t.Errorf("Inflight = %d, want 0", s.Inflight)
	}
	if s.Latency.Count != workers*per {
		t.Errorf("Latency.Count = %d, want %d", s.Latency.Count, workers*per)
	}
}

func TestRecentQPSCountsOnlyTaggedSeconds(t *testing.T) {
	e := newEndpoint("x")
	e.created = time.Now().Add(-time.Minute) // older than the window
	now := time.Now().Unix()
	// Simulate 30 requests one second ago and stale entries beyond the
	// window; RecentQPS averages over the fixed window.
	for i := 0; i < 30; i++ {
		e.tick(now - 1)
	}
	for i := 0; i < 99; i++ {
		e.tick(now - recentWindow - 2)
	}
	got := e.RecentQPS()
	want := 30.0 / recentWindow
	if got != want {
		t.Errorf("RecentQPS = %v, want %v", got, want)
	}

	// A young endpoint averages over its own lifetime, not the full
	// window, so short runs are not under-reported.
	young := newEndpoint("y")
	young.created = time.Now().Add(-2 * time.Second)
	for i := 0; i < 40; i++ {
		young.tick(now - 1)
	}
	if got := young.RecentQPS(); got != 20 {
		t.Errorf("young RecentQPS = %v, want 20 (40 requests over a 2s life)", got)
	}
}

func TestPanicCounter(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("append")
	if e.Panics() != 0 {
		t.Fatalf("fresh panics = %d, want 0", e.Panics())
	}
	e.RecordPanic()
	e.RecordPanic()
	if e.Panics() != 2 {
		t.Fatalf("panics = %d, want 2", e.Panics())
	}
	if s := r.Snapshot()[0]; s.Panics != 2 {
		t.Errorf("snapshot panics = %d, want 2", s.Panics)
	}
}
