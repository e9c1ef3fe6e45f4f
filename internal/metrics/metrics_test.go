package metrics

import (
	"sync"
	"testing"
	"time"
)

// value reads one sample off the registry's gather.
func value(t *testing.T, r *Registry, sample string, labels ...string) float64 {
	t.Helper()
	v, ok := r.Gather().Value(sample, labels...)
	if !ok {
		t.Fatalf("no sample %s%v in the gather", sample, labels)
	}
	return v
}

func TestEndpointCountersAndErrors(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("estimate")
	if again := r.Endpoint("estimate"); again != e {
		t.Fatal("Endpoint is not idempotent per name")
	}
	for _, o := range []Outcome{OK, Error, Rejected} {
		e.Begin()
		e.End(time.Millisecond, o)
	}
	e.Begin()
	if f := r.Gather().Find("xqest_http_requests_total"); f == nil || len(f.Samples) != 1 {
		t.Fatalf("requests family = %+v, want one endpoint", f)
	}
	ep := []string{"endpoint", "estimate"}
	for _, c := range []struct {
		sample string
		want   float64
	}{
		{"xqest_http_requests_total", 3},
		{"xqest_http_errors_total", 1},
		{"xqest_http_rejected_total", 1},
		{"xqest_http_inflight_requests", 1},
	} {
		if got := value(t, r, c.sample, ep...); got != c.want {
			t.Errorf("%s = %v, want %v", c.sample, got, c.want)
		}
	}
	e.End(time.Millisecond, OK)
	if req, inf := value(t, r, "xqest_http_requests_total", ep...), value(t, r, "xqest_http_inflight_requests", ep...); req != 4 || inf != 0 {
		t.Errorf("after done: requests=%v inflight=%v, want 4 and 0", req, inf)
	}
	if up := value(t, r, "xqest_uptime_seconds"); up <= 0 {
		t.Errorf("uptime = %v, want > 0 (lifetime QPS is requests over it)", up)
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
				e.End(time.Microsecond, OutcomeOf(i%10 == 0))
			}
		}(w)
	}
	wg.Wait()
	ep := []string{"endpoint", "stress"}
	if got := value(t, r, "xqest_http_requests_total", ep...); got != workers*per {
		t.Errorf("requests = %v, want %d", got, workers*per)
	}
	if got := value(t, r, "xqest_http_errors_total", ep...); got != workers*per/10 {
		t.Errorf("errors = %v, want %d", got, workers*per/10)
	}
	if got := value(t, r, "xqest_http_inflight_requests", ep...); got != 0 {
		t.Errorf("inflight = %v, want 0", got)
	}
	if got := value(t, r, "xqest_http_request_duration_seconds_count", ep...); got != workers*per {
		t.Errorf("latency count = %v, want %d", got, workers*per)
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
	if got := value(t, r, "xqest_http_panics_total", "endpoint", "append"); got != 2 {
		t.Errorf("gathered panics = %v, want 2", got)
	}
}
