package metrics

import (
	"sync"
	"testing"
	"time"
)

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

func TestRecentQPSAcrossIdleGaps(t *testing.T) {
	e := newEndpoint("test")
	now := time.Now().Unix()
	e.created = time.Now().Add(-time.Hour) // old endpoint: no young-endpoint shortcut
	// A burst 3 seconds ago, then silence: the ring must still hold the
	// burst (it is within the window) but average it over the window.
	for i := 0; i < 50; i++ {
		e.tick(now - 3)
	}
	qps := e.RecentQPS()
	want := 50.0 / recentWindow
	if qps < want*0.99 || qps > want*1.01 {
		t.Errorf("RecentQPS = %v, want ~%v (50 requests in a %ds window)", qps, want, int(recentWindow))
	}
	// A burst far older than the window must have aged out entirely,
	// even with no intervening traffic to overwrite its slot.
	e2 := newEndpoint("test2")
	e2.created = time.Now().Add(-time.Hour)
	for i := 0; i < 50; i++ {
		e2.tick(now - int64(recentWindow) - 40)
	}
	if qps := e2.RecentQPS(); qps != 0 {
		t.Errorf("RecentQPS after idle gap = %v, want 0 (burst aged out)", qps)
	}
	// Sparse traffic across the gap: one tagged second inside the
	// window counts, stale slots from before it do not.
	e3 := newEndpoint("test3")
	e3.created = time.Now().Add(-time.Hour)
	for i := 0; i < 20; i++ {
		e3.tick(now - int64(recentWindow) - 40) // stale
	}
	e3.tick(now - 1) // fresh
	if qps := e3.RecentQPS(); qps != 1.0/recentWindow {
		t.Errorf("RecentQPS sparse = %v, want %v", qps, 1.0/recentWindow)
	}
}
