package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlest"
	"xmlest/internal/fsio"
)

// openFaultDurable opens a durable database in dir on the given
// filesystem, bootstrapped with the crash tests' dept1 corpus.
func openFaultDurable(t *testing.T, dir string, fs fsio.FS) *xmlest.Database {
	t.Helper()
	db, err := xmlest.OpenDurable(dir, xmlest.DurableConfig{
		Options:   xmlest.Options{GridSize: 4},
		Bootstrap: durableBootstrap,
		FS:        fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDegradedServingEndToEnd drives the whole degraded-mode story
// over HTTP: a sticky fsync failure turns appends into 503s that name
// the failed component, reads keep serving the last good snapshot,
// /healthz and /stats report the degradation, and a restart on a
// healthy disk recovers exactly the acknowledged appends.
func TestDegradedServingEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	db := openFaultDurable(t, dir, ffs)
	_, ts := newDurableTestServer(t, db)

	// Healthy append: acked and durable.
	resp := postAppendXML(t, ts.URL, dept2)
	ar := decode[AppendResponse](t, resp)
	if resp.StatusCode != http.StatusOK || ar.WALSeq != 1 {
		t.Fatalf("healthy append: HTTP %d, %+v", resp.StatusCode, ar)
	}

	// The disk stops honoring fsync. The next append's ack MUST be an
	// error: this is the test the issue demands — fsync fails, no lie.
	ffs.SetFaults(fsio.Faults{SyncFailAfter: 1})
	resp = postAppendXML(t, ts.URL, dept2)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append with failing fsync: HTTP %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("degraded 503 lacks Retry-After")
	}
	er := decode[ErrorResponse](t, resp)
	if er.Degraded == nil || er.Degraded.Component != "wal" {
		t.Fatalf("degraded append error: %+v", er)
	}

	// Subsequent appends are refused up front by the degraded gate.
	resp = postAppendXML(t, ts.URL, dept2)
	er = decode[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || er.Degraded == nil || er.Degraded.Component != "wal" {
		t.Fatalf("append while sealed: HTTP %d, %+v", resp.StatusCode, er)
	}

	// Reads still serve the last good snapshot.
	resp = postJSON(t, ts.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"})
	est := decode[EstimateResponse](t, resp)
	if resp.StatusCode != http.StatusOK || est.Estimate == nil || *est.Estimate <= 0 {
		t.Fatalf("estimate while degraded: HTTP %d, %+v", resp.StatusCode, est)
	}

	// /healthz stays 200 (reads are alive) but reports the component.
	resp = mustGet(t, ts.URL+"/healthz")
	h := decode[HealthResponse](t, resp)
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" ||
		h.Degraded == nil || h.Degraded.Component != "wal" {
		t.Fatalf("degraded healthz: HTTP %d, %+v", resp.StatusCode, h)
	}

	// /stats surfaces the durability degradation for monitoring.
	st := getStats(t, ts.URL)
	if wal, cp := value(t, st, "xqest_degraded", "component", "wal"), value(t, st, "xqest_degraded", "component", "checkpoint"); wal != 1 || cp != 0 {
		t.Fatalf("degraded stats: xqest_degraded wal=%v checkpoint=%v, want 1 and 0", wal, cp)
	}

	// Restart on a healthy disk: the acked append is there, the refused
	// ones are not, and the daemon is fully healthy again.
	ts.Close()
	_ = db.Close() // sealed WAL: the close itself reports the failure
	db2 := openFaultDurable(t, dir, nil)
	defer db2.Close()
	_, ts2 := newDurableTestServer(t, db2)
	h = decode[HealthResponse](t, mustGet(t, ts2.URL+"/healthz"))
	if h.Status != "ok" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
	if got := db2.Version(); got == 0 {
		t.Fatal("recovered database has no serving version")
	}
	if rec, ok := db2.Recovery(); !ok || rec.ReplayedRecords+rec.CheckpointShards == 0 {
		t.Fatalf("recovery info: %+v ok=%v", rec, ok)
	}
	resp = postAppendXML(t, ts2.URL, dept2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after recovery: HTTP %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestPanicRecoveryMiddleware: a panicking handler becomes a 500 with
// a JSON error body and a bumped panics counter — the process and the
// connection both survive.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.instrument("panicky", http.MethodGet, DefaultMaxBodyBytes, func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panicky", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: HTTP %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("panic response body %q: %v", rec.Body.String(), err)
	}
	if got := s.Metrics().Endpoint("panicky").Panics(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// A panic after the handler already wrote keeps the partial
	// response (the status line is gone) but still counts.
	h2 := s.instrument("panicky2", http.MethodGet, DefaultMaxBodyBytes, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late boom")
	})
	rec2 := httptest.NewRecorder()
	h2.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/panicky2", nil))
	if got := s.Metrics().Endpoint("panicky2").Panics(); got != 1 {
		t.Fatalf("late panics counter = %d, want 1", got)
	}
}

// TestHTTPHardeningConfig: zero-valued timeout knobs take the
// defaults, explicit values stick, negatives are rejected at boot.
func TestHTTPHardeningConfig(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if s.cfg.ReadTimeout != DefaultReadTimeout || s.cfg.WriteTimeout != DefaultWriteTimeout ||
		s.cfg.IdleTimeout != DefaultIdleTimeout || s.cfg.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}

	s2, _ := newTestServer(t, Config{
		ReadTimeout: 3 * time.Second, WriteTimeout: 4 * time.Second,
		IdleTimeout: 5 * time.Second, MaxHeaderBytes: 4096,
	})
	if s2.cfg.ReadTimeout != 3*time.Second || s2.cfg.WriteTimeout != 4*time.Second ||
		s2.cfg.IdleTimeout != 5*time.Second || s2.cfg.MaxHeaderBytes != 4096 {
		t.Fatalf("explicit values not kept: %+v", s2.cfg)
	}

	// The listener-facing http.Server carries the configured values.
	s3, _ := newTestServer(t, Config{Addr: "127.0.0.1:0", ReadTimeout: 3 * time.Second})
	if _, err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := timeoutCtx(t)
	defer cancel()
	defer s3.Shutdown(ctx)
	if s3.httpSrv.ReadTimeout != 3*time.Second ||
		s3.httpSrv.WriteTimeout != DefaultWriteTimeout ||
		s3.httpSrv.IdleTimeout != DefaultIdleTimeout ||
		s3.httpSrv.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Fatalf("http.Server fields: %+v", s3.httpSrv)
	}

	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []Config{
		{ReadTimeout: -time.Second},
		{WriteTimeout: -time.Second},
		{IdleTimeout: -time.Second},
		{MaxHeaderBytes: -1},
	} {
		bad.Logger = discardLogger()
		if _, err := New(db, bad); err == nil {
			t.Errorf("bad hardening config %d accepted at boot", i)
		}
	}
}

// TestCheckpointFailureCountsAndBacksOff: a failing checkpoint bumps
// the failure counter and leaves the server degraded; a later success
// clears it.
func TestCheckpointFailureCountsAndBacksOff(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	db := openFaultDurable(t, dir, ffs)
	defer db.Close()
	s, ts := newDurableTestServer(t, db)

	// Break the disk for exactly the next operation: the checkpoint
	// fails, counts, and marks the component.
	ffs.SetFaults(fsio.Faults{FailOp: ffs.OpCount() + 1})
	if err := s.checkpointOnce(); err == nil {
		t.Fatal("checkpoint on a failing disk: want error")
	}
	if got := s.cpFailures.Load(); got != 1 {
		t.Fatalf("checkpoint failure counter = %d, want 1", got)
	}
	h := decode[HealthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if h.Status != "degraded" || h.Degraded == nil || h.Degraded.Component != "checkpoint" {
		t.Fatalf("healthz after failed checkpoint: %+v", h)
	}
	// Appends still work: only the checkpoint path is degraded.
	resp := postAppendXML(t, ts.URL, dept2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append under checkpoint degradation: HTTP %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ffs.ClearFaults()
	if err := s.checkpointOnce(); err != nil {
		t.Fatalf("recovered checkpoint: %v", err)
	}
	h = decode[HealthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if h.Status != "ok" {
		t.Fatalf("healthz after recovered checkpoint: %+v", h)
	}
}
