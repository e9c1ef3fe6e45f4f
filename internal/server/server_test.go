package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmlest"
	"xmlest/internal/metrics"
)

const dept1 = `<department>
	<faculty><name>A</name><TA/><TA/></faculty>
	<staff><name>B</name></staff>
</department>`

const dept2 = `<department>
	<faculty><name>C</name><TA/><TA/><TA/></faculty>
	<faculty><name>D</name><TA/></faculty>
</department>`

// newTestServer builds a server over the dept1 document with tag
// predicates and a small grid.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	if cfg.Options.GridSize == 0 {
		cfg.Options.GridSize = 4
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	return v
}

func TestEstimateSingleAndBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single estimate: HTTP %d", resp.StatusCode)
	}
	single := decode[EstimateResponse](t, resp)
	if len(single.Results) != 1 || single.Estimate == nil {
		t.Fatalf("single response = %+v, want one result with top-level estimate", single)
	}
	if *single.Estimate <= 0 {
		t.Errorf("estimate = %v, want > 0", *single.Estimate)
	}
	if single.Version == 0 {
		t.Error("missing snapshot version")
	}

	resp = postJSON(t, ts.URL+"/estimate", EstimateRequest{
		Patterns: []string{"//faculty//TA", "//department//faculty", "//faculty//TA"},
	})
	batch := decode[EstimateResponse](t, resp)
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	if batch.Estimate != nil {
		t.Error("batch response sets the single-estimate convenience field")
	}
	if batch.Results[0].Estimate != batch.Results[2].Estimate {
		t.Errorf("duplicate pattern disagreed within one batch: %v vs %v",
			batch.Results[0].Estimate, batch.Results[2].Estimate)
	}
	if batch.Results[0].Estimate != *single.Estimate {
		t.Errorf("batch estimate %v != single estimate %v", batch.Results[0].Estimate, *single.Estimate)
	}
}

func TestEstimateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchPatterns: 2})

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty request", EstimateRequest{}, http.StatusBadRequest},
		{"syntax error", EstimateRequest{Pattern: "//[["}, http.StatusBadRequest},
		{"unknown predicate", EstimateRequest{Pattern: "//nosuchtag//TA"}, http.StatusBadRequest},
		{"batch too large", EstimateRequest{Patterns: []string{"//a", "//b", "//c"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/estimate", tc.body)
		e := decode[ErrorResponse](t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if e.Error == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /estimate: HTTP %d, want 405", resp.StatusCode)
	}
}

func TestAppendMakesDocumentsVisible(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	before := decode[EstimateResponse](t, postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}))

	resp, err := http.Post(ts.URL+"/append", "application/xml", strings.NewReader(dept2))
	if err != nil {
		t.Fatal(err)
	}
	ar := decode[AppendResponse](t, resp)
	if ar.Docs != 1 || ar.Nodes == 0 || ar.ShardID == 0 {
		t.Fatalf("append response = %+v", ar)
	}
	if ar.Version <= before.Version {
		t.Fatalf("append version %d not after estimate version %d", ar.Version, before.Version)
	}

	after := decode[EstimateResponse](t, postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}))
	if after.Version < ar.Version {
		t.Errorf("estimate version %d behind append version %d", after.Version, ar.Version)
	}
	if *after.Estimate <= *before.Estimate {
		t.Errorf("estimate did not grow after append: %v -> %v", *before.Estimate, *after.Estimate)
	}

	// JSON batch ingest lands as one shard.
	resp = postJSON(t, ts.URL+"/append", AppendRequest{Documents: []string{dept1, dept2}})
	ar2 := decode[AppendResponse](t, resp)
	if ar2.Docs != 2 {
		t.Errorf("JSON append landed %d docs, want 2 in one shard", ar2.Docs)
	}

	shards := decode[ShardsResponse](t, mustGet(t, ts.URL+"/shards"))
	if len(shards.Shards) != 3 {
		t.Errorf("shard count = %d, want 3", len(shards.Shards))
	}

	// Malformed XML is the client's fault.
	resp, err = http.Post(ts.URL+"/append", "application/xml", strings.NewReader("<unclosed"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed append: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestCompactEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/append", "application/xml", strings.NewReader(dept2))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	cr := decode[CompactResponse](t, postJSON(t, ts.URL+"/compact", CompactRequest{}))
	if cr.Merged < 2 {
		t.Fatalf("compact merged %d shards, want >= 2", cr.Merged)
	}
	if cr.Shards != 4-cr.Merged+1 {
		t.Errorf("compact response shards = %d with %d merged from 4", cr.Shards, cr.Merged)
	}

	// A full merge matches single-build semantics: the compacted shard
	// estimates exactly like a database opened with all documents at
	// once (smallest-first merge order = open order here).
	if cr.Shards == 1 {
		mono, err := xmlest.Open(strings.NewReader(dept1), strings.NewReader(dept2),
			strings.NewReader(dept2), strings.NewReader(dept2))
		if err != nil {
			t.Fatal(err)
		}
		mono.AddAllTagPredicates()
		monoEst, err := mono.NewEstimator(xmlest.Options{GridSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := monoEst.Estimate("//faculty//TA")
		if err != nil {
			t.Fatal(err)
		}
		after := decode[EstimateResponse](t, postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}))
		if *after.Estimate != want.Estimate {
			t.Errorf("compacted estimate %v != single-build estimate %v", *after.Estimate, want.Estimate)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	h := decode[HealthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if h.Status != "ok" || h.Shards != 1 {
		t.Errorf("healthz = %+v", h)
	}

	// Generate some traffic, then check it shows up in /stats.
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st := getStats(t, ts.URL)
	if docs, shards, preds := value(t, st, "xqest_corpus_docs"), value(t, st, "xqest_shards"), value(t, st, "xqest_corpus_predicates"); docs != 1 || shards != 1 || preds == 0 {
		t.Errorf("stats corpus: docs %v, shards %v, predicates %v", docs, shards, preds)
	}
	if b := value(t, st, "xqest_summary_bytes"); b <= 0 {
		t.Errorf("summary bytes = %v, want > 0", b)
	}
	if n := value(t, st, "xqest_http_requests_total", "endpoint", "estimate"); n != 5 {
		t.Errorf("estimate endpoint requests = %v, want 5", n)
	}
	if p50 := st.Quantile("xqest_http_request_duration_seconds", 0.5, "endpoint", "estimate"); !(p50 > 0) {
		t.Errorf("estimate p50 = %v, want > 0", p50)
	}

	// Draining flips healthz to 503.
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestAppendBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflightAppends: 1})
	// Fill the one slot so the next request must be rejected.
	s.appendSem <- struct{}{}
	defer func() { <-s.appendSem }()

	resp, err := http.Post(ts.URL+"/append", "application/xml", strings.NewReader(dept2))
	if err != nil {
		t.Fatal(err)
	}
	e := decode[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("backpressured append: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if !strings.Contains(e.Error, "backpressure") {
		t.Errorf("error = %q, want a backpressure explanation", e.Error)
	}

	// Estimates keep flowing: the read fast path takes no semaphore.
	er := postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
	if er.StatusCode != http.StatusOK {
		t.Errorf("estimate under append backpressure: HTTP %d, want 200", er.StatusCode)
	}
	io.Copy(io.Discard, er.Body)
	er.Body.Close()

	// The deliberate 503 counts as a rejection, not an error: a
	// saturated-but-healthy daemon must not read as error-ridden.
	fams := s.Metrics().Gather()
	rejected, _ := fams.Value("xqest_http_rejected_total", "endpoint", "append")
	errs, _ := fams.Value("xqest_http_errors_total", "endpoint", "append")
	if rejected != 1 || errs != 0 {
		t.Errorf("append endpoint rejected=%v errors=%v, want 1 and 0", rejected, errs)
	}
}

func TestReadOnlyServer(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := xmlest.LoadEstimator(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFromEstimator(loaded, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ReadOnly() {
		t.Fatal("loaded server not read-only")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	er := decode[EstimateResponse](t, postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}))
	want, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if *er.Estimate != want.Estimate {
		t.Errorf("loaded estimate %v != direct %v", *er.Estimate, want.Estimate)
	}

	for _, path := range []string{"/append", "/compact"} {
		resp, err := http.Post(ts.URL+path, "application/xml", strings.NewReader(dept2))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("POST %s on read-only server: HTTP %d, want 403", path, resp.StatusCode)
		}
	}
}

func TestShutdownPersistsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.xqs")
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	s, err := New(db, Config{
		Addr:         "127.0.0.1:0",
		Options:      xmlest.Options{GridSize: 4},
		SnapshotPath: path,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s", addr)
	want := decode[EstimateResponse](t, postJSON(t, url+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}))

	ctx, cancel := timeoutCtx(t)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}
	loaded, err := xmlest.LoadEstimator(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != *want.Estimate {
		t.Errorf("reloaded estimate %v != served %v", got.Estimate, *want.Estimate)
	}
}

func TestAutoCompactLoop(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	for i := 0; i < 3; i++ {
		if _, err := db.Append(strings.NewReader(dept2)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(db, Config{
		Addr:                "127.0.0.1:0",
		Options:             xmlest.Options{GridSize: 4},
		AutoCompactInterval: 10 * time.Millisecond,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.ShardCount() > 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := db.ShardCount(); got != 1 {
		t.Errorf("auto-compaction left %d shards, want 1", got)
	}
	ctx, cancel := timeoutCtx(t)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if s.autoRounds.Load() == 0 {
		t.Error("no auto-compaction rounds recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	bad := []Config{
		{Options: xmlest.Options{GridSize: -1}},
		{Options: xmlest.Options{BuildWorkers: -2}},
		{MaxInflightAppends: -1},
		{MaxBatchPatterns: -1},
		{AutoCompactInterval: -time.Second},
	}
	for i, cfg := range bad {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		if _, err := New(db, cfg); err == nil {
			t.Errorf("config %d: bad config accepted at boot", i)
		}
	}
}

// getStats fetches /stats and decodes its families.
func getStats(t *testing.T, base string) metrics.Families {
	t.Helper()
	return decode[metrics.Families](t, mustGet(t, base+"/stats"))
}

// value reads one sample off a gather, failing the test when it is
// absent.
func value(t *testing.T, fams metrics.Families, sample string, labels ...string) float64 {
	t.Helper()
	v, ok := fams.Value(sample, labels...)
	if !ok {
		t.Fatalf("/stats has no sample %s%v", sample, labels)
	}
	return v
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func timeoutCtx(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// TestEstimatePooledScratchStable hammers the pooled /estimate path
// with interleaved single and batched requests and checks the recycled
// request scratch never bleeds state between requests: every response
// is byte-identical to its first occurrence.
func TestEstimatePooledScratchStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	requests := []any{
		map[string]any{"pattern": "//faculty//TA"},
		map[string]any{"patterns": []string{"//department//faculty", "//faculty//TA"}},
		map[string]any{"pattern": "//department//staff", "patterns": []string{"//faculty//TA"}},
	}
	canonical := func(body []byte) string {
		var er EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("bad response %s: %v", body, err)
		}
		for i := range er.Results {
			er.Results[i].ElapsedNS = 0 // wall-clock noise, not payload
		}
		out, err := json.Marshal(er)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	first := make([]string, len(requests))
	for round := 0; round < 5; round++ {
		for i, req := range requests {
			resp := postJSON(t, ts.URL+"/estimate", req)
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d req %d: status %d: %s", round, i, resp.StatusCode, body)
			}
			got := canonical(body)
			if round == 0 {
				first[i] = got
				continue
			}
			if got != first[i] {
				t.Fatalf("round %d req %d: response drifted:\n%s\nvs\n%s", round, i, got, first[i])
			}
		}
	}
}

// TestStatsReportsAppendedShard: after an append /stats reports the
// second shard, and estimates keep answering from the two-shard set.
func TestStatsReportsAppendedShard(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/append", map[string]any{"documents": []string{dept2}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	if n := value(t, getStats(t, ts.URL), "xqest_shards"); n != 2 {
		t.Fatalf("/stats reports %v shards after one append, want 2", n)
	}
	est := postJSON(t, ts.URL+"/estimate", map[string]any{"pattern": "//department//name"})
	est.Body.Close()
	if est.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", est.StatusCode)
	}
}
