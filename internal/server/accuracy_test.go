package server

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"xmlest/internal/metrics"
)

// TestShadowSamplingEndToEnd drives /estimate with 1-in-1 shadow
// sampling and waits for the background verifier to populate the
// accuracy section of /stats and the xqest_accuracy_* families on
// /metrics.
func TestShadowSamplingEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{ShadowSample: 1})

	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d: HTTP %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	var stats metrics.Families
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats = getStats(t, ts.URL)
		if v, _ := stats.Value("xqest_accuracy_verified_total"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accuracy families never verified anything: %+v", stats.Find("xqest_accuracy_verified_total"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	if every := value(t, stats, "xqest_accuracy_sample_every"); every != 1 {
		t.Errorf("sample_every = %v, want 1", every)
	}
	sampled, verified := value(t, stats, "xqest_accuracy_sampled_total"), value(t, stats, "xqest_accuracy_verified_total")
	if sampled < verified {
		t.Errorf("sampled %v < verified %v", sampled, verified)
	}
	// dept1 is tiny and the estimator sees the whole document: verified
	// q-errors must be sane (>= 1, finite).
	count, sum := value(t, stats, "xqest_accuracy_qerror_count"), value(t, stats, "xqest_accuracy_qerror_sum")
	if count == 0 || sum < count || math.IsInf(sum, 0) {
		t.Errorf("q-error histogram empty or invalid: count %v, sum %v", count, sum)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"# TYPE xqest_accuracy_qerror histogram",
		"xqest_accuracy_qerror_count",
		"xqest_accuracy_sampled_total",
		"xqest_accuracy_verified_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Shutdown stops the monitor without hanging on queued work.
	done := make(chan struct{})
	go func() {
		s.monitor.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor.Close() hung")
	}
}

// TestShadowSamplingDisabledByDefault asserts the zero-config server
// has no monitor: /stats carries no accuracy family.
func TestShadowSamplingDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
	resp.Body.Close()
	for _, f := range getStats(t, ts.URL) {
		if strings.HasPrefix(f.Name, "xqest_accuracy_") {
			t.Errorf("accuracy family %s present with sampling disabled", f.Name)
		}
	}
}
