package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlest/internal/trace"
)

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})

	// Drive a couple of requests so histograms and stage recorders have
	// samples.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: HTTP %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want prometheus 0.0.4 text", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE xqest_http_requests_total counter",
		`xqest_http_requests_total{endpoint="estimate"} 3`,
		"xqest_build_info{",
		"xqest_estimate_stage_seconds_bucket{",
		`xqest_estimate_stage_seconds_count{stage="decode"} 3`,
		`xqest_estimate_stage_seconds_count{stage="estimate"} 3`,
		`xqest_estimate_stage_seconds_count{stage="encode"} 3`,
		// Traced requests share the store's compiled-query memo:
		// three sampled requests for one pattern bind it once.
		"xqest_prepare_fanout_total 1\n",
		"xqest_shards ",
		"go_goroutines ",
		"xqest_pattern_requests_total{",
		"xqest_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scrape itself must be instrumented too.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), `xqest_http_requests_total{endpoint="metrics"} 1`) {
		t.Error("second scrape does not count the first /metrics request")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Client-supplied ID is echoed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(trace.RequestIDHeader, "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(trace.RequestIDHeader); got != "client-abc-123" {
		t.Errorf("echoed request ID = %q, want client-abc-123", got)
	}

	// No client ID: the server generates one.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(trace.RequestIDHeader); got == "" {
		t.Error("no generated request ID on response")
	}
}

func TestSlowRequestLogged(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, ts := newTestServer(t, Config{
		Logger:      logger,
		TraceSample: 1,
		SlowRequest: time.Nanosecond, // everything is slow
	})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate",
		strings.NewReader(`{"pattern":"//faculty//TA"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.RequestIDHeader, "slow-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := buf.String()
	for _, want := range []string{"slow request", "slow-req-7", "endpoint=estimate", "stages="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q in:\n%s", want, out)
		}
	}
}

func TestStatsIncludesPatternsAndBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//staff"})
	resp.Body.Close()

	stats := getStats(t, ts.URL)
	if bi := stats.Find("xqest_build_info"); bi == nil || len(bi.Samples) != 1 || bi.Samples[0].Label("version") == "" {
		t.Errorf("stats missing build info: %+v", bi)
	}
	req := stats.Find("xqest_pattern_requests_total")
	if req == nil || len(req.Samples) < 2 {
		t.Fatalf("stats patterns = %+v, want at least 2", req)
	}
	if n := value(t, stats, "xqest_pattern_requests_total", "pattern", "//faculty//TA"); n != 4 {
		t.Errorf("//faculty//TA requests = %v, want 4", n)
	}
	if n := value(t, stats, "xqest_pattern_requests_total", "pattern", "//staff"); n != 1 {
		t.Errorf("//staff requests = %v, want 1", n)
	}
}

func httpGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// syncBuffer is a mutex-guarded bytes.Buffer usable as an slog sink
// from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
