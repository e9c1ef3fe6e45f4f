package server

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlest"
)

// newDurableNode boots a durable server node in its own data dir.
// followURL == "" makes it a leader; otherwise a follower of that URL.
func newDurableNode(t *testing.T, followURL string) (*Server, *httptest.Server, *xmlest.Database) {
	t.Helper()
	return newSampledNode(t, followURL, 0)
}

// newSampledNode is newDurableNode shadow-verifying 1 in shadowSample
// estimates (0 disables).
func newSampledNode(t *testing.T, followURL string, shadowSample int) (*Server, *httptest.Server, *xmlest.Database) {
	t.Helper()
	db, err := xmlest.OpenDurable(t.TempDir(), xmlest.DurableConfig{
		Options: xmlest.Options{GridSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Options:      xmlest.Options{GridSize: 4},
		FollowURL:    followURL,
		ShadowSample: shadowSample,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if followURL != "" {
		cfg.StalenessBudget = 200 * time.Millisecond
	}
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts, db
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decode[T](t, resp)
}

func waitReplicated(t *testing.T, leaderURL, followerURL string, timeout time.Duration, label string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lh := getJSON[HealthResponse](t, leaderURL+"/healthz")
		fh := getJSON[HealthResponse](t, followerURL+"/healthz")
		if lh.DurableSeq != nil && fh.DurableSeq != nil &&
			*lh.DurableSeq == *fh.DurableSeq && lh.Version == fh.Version {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: follower never caught up: leader %+v follower %+v", label, lh, fh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var replPatterns = []string{
	"//department//faculty",
	"//department//faculty[.//TA]",
	"//department//staff",
	"//faculty//TA",
}

func estimateOver(t *testing.T, baseURL string) (uint64, []float64) {
	t.Helper()
	resp := postJSON(t, baseURL+"/estimate", EstimateRequest{Patterns: replPatterns})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: HTTP %d", resp.StatusCode)
	}
	er := decode[EstimateResponse](t, resp)
	out := make([]float64, len(er.Results))
	for i, r := range er.Results {
		out[i] = r.Estimate
	}
	return er.Version, out
}

func TestTwoNodeReplication(t *testing.T) {
	_, leaderTS, _ := newDurableNode(t, "")
	_, followerTS, _ := newDurableNode(t, leaderTS.URL)

	// Roles are reported from the first probe on.
	lh := getJSON[HealthResponse](t, leaderTS.URL+"/healthz")
	if lh.Replication == nil || lh.Replication.Role != "leader" {
		t.Fatalf("leader healthz replication = %+v", lh.Replication)
	}
	fh := getJSON[HealthResponse](t, followerTS.URL+"/healthz")
	if fh.Replication == nil || fh.Replication.Role != "follower" || fh.Replication.Upstream != leaderTS.URL {
		t.Fatalf("follower healthz replication = %+v", fh.Replication)
	}

	// Appends go to the leader; the follower refuses them.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, leaderTS.URL+"/append", AppendRequest{Documents: []string{dept1, dept2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("leader append: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, followerTS.URL+"/append", AppendRequest{Documents: []string{dept1}})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower append: HTTP %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, followerTS.URL+"/compact", CompactRequest{})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower compact: HTTP %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()

	waitReplicated(t, leaderTS.URL, followerTS.URL, 5*time.Second, "append replication")

	// Cross-node exactness over the HTTP surface: same version, bit-
	// identical estimates.
	lv, lres := estimateOver(t, leaderTS.URL)
	fv, fres := estimateOver(t, followerTS.URL)
	if lv != fv {
		t.Fatalf("leader served version %d, follower %d", lv, fv)
	}
	for i := range lres {
		if math.Float64bits(lres[i]) != math.Float64bits(fres[i]) {
			t.Fatalf("pattern %q: follower %v != leader %v (not bit-identical)", replPatterns[i], fres[i], lres[i])
		}
	}

	// The follower's stats expose the lag denominators and counters;
	// /healthz names each node's role.
	if r := getJSON[HealthResponse](t, followerTS.URL+"/healthz").Replication; r == nil || r.Role != "follower" {
		t.Fatalf("follower healthz replication = %+v", r)
	}
	fs := getStats(t, followerTS.URL)
	if lag, applied := value(t, fs, "xqest_replica_lag_seq"), value(t, fs, "xqest_replica_records_applied_total"); lag != 0 || applied == 0 {
		t.Fatalf("follower stats: lag seq %v, records applied %v, want 0 and > 0", lag, applied)
	}
	if leader, applied := value(t, fs, "xqest_replica_leader_seq"), value(t, fs, "xqest_replica_applied_seq"); leader == 0 || applied != leader {
		t.Fatalf("follower stats: leader seq %v, applied seq %v, want equal and > 0", leader, applied)
	}
	if r := getJSON[HealthResponse](t, leaderTS.URL+"/healthz").Replication; r == nil || r.Role != "leader" {
		t.Fatalf("leader healthz replication = %+v", r)
	}
	if shipped := value(t, getStats(t, leaderTS.URL), "xqest_replica_bytes_shipped_total"); shipped == 0 {
		t.Fatalf("leader stats: bytes shipped %v, want > 0", shipped)
	}
}

func TestFollowerDegradesOnLeaderLossAndRecovers(t *testing.T) {
	leaderSrv, leaderTS, leaderDB := newDurableNode(t, "")
	_, followerTS, _ := newDurableNode(t, leaderTS.URL)

	resp := postJSON(t, leaderTS.URL+"/append", AppendRequest{Documents: []string{dept1, dept2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader append: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitReplicated(t, leaderTS.URL, followerTS.URL, 5*time.Second, "pre-loss")
	_, want := estimateOver(t, followerTS.URL)

	// The leader vanishes mid-life. Close the listener before sweeping
	// connections: otherwise the follower re-dials between the sweep and
	// Close, and Close waits out a live long-poll that heartbeats keep
	// active.
	leaderTS.Listener.Close()
	closed := make(chan struct{})
	go func() { leaderTS.Close(); close(closed) }()
	for stop := false; !stop; {
		select {
		case <-closed:
			stop = true
		default:
			leaderTS.CloseClientConnections()
			time.Sleep(5 * time.Millisecond)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		fh := getJSON[HealthResponse](t, followerTS.URL+"/healthz")
		if fh.Status == "degraded" {
			if fh.Degraded == nil || fh.Degraded.Component != "replication" {
				t.Fatalf("degraded follower names %+v, want replication", fh.Degraded)
			}
			if fh.Replication == nil || !fh.Replication.Stale {
				t.Fatalf("degraded follower not stale: %+v", fh.Replication)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never degraded after leader loss: %+v", fh)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Degraded never lies, and never refuses: reads still serve the last
	// durably applied state.
	_, got := estimateOver(t, followerTS.URL)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("degraded read changed: %v != %v", got[i], want[i])
		}
	}

	// The leader returns at the same address contents-wise: a new
	// listener over the same database. The follower reconnects, the
	// degradation clears. (A new URL means a new follower config in
	// production; here we re-point via a fresh follower node.)
	// t.Cleanup, not defer: cleanups are LIFO, so the follower node
	// registered below shuts down (closing its stream client) before this
	// listener's Close waits for open connections.
	leaderTS2 := httptest.NewServer(leaderSrv.Handler())
	t.Cleanup(leaderTS2.Close)
	_, follower2TS, _ := newDurableNode(t, leaderTS2.URL)
	resp = postJSON(t, leaderTS2.URL+"/append", AppendRequest{Documents: []string{dept2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted leader append: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitReplicated(t, leaderTS2.URL, follower2TS.URL, 5*time.Second, "post-restart")
	fh := getJSON[HealthResponse](t, follower2TS.URL+"/healthz")
	if fh.Status != "ok" || (fh.Replication != nil && fh.Replication.Stale) {
		t.Fatalf("recovered follower still degraded: %+v", fh)
	}
	lv, lres := estimateOver(t, leaderTS2.URL)
	fv2, fres := estimateOver(t, follower2TS.URL)
	if lv != fv2 {
		t.Fatalf("post-restart versions diverge: %d vs %d", lv, fv2)
	}
	for i := range lres {
		if math.Float64bits(lres[i]) != math.Float64bits(fres[i]) {
			t.Fatalf("post-restart estimates diverge: %v != %v", lres[i], fres[i])
		}
	}
	_ = leaderDB
}

func TestReplicaMetricsFamilies(t *testing.T) {
	_, leaderTS, _ := newDurableNode(t, "")
	_, followerTS, _ := newDurableNode(t, leaderTS.URL)
	resp := postJSON(t, leaderTS.URL+"/append", AppendRequest{Documents: []string{dept1}})
	resp.Body.Close()
	waitReplicated(t, leaderTS.URL, followerTS.URL, 5*time.Second, "metrics warm-up")

	get := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fm := get(followerTS.URL)
	for _, fam := range []string{
		"xqest_replica_lag_seq",
		"xqest_replica_lag_seconds",
		"xqest_replica_connected",
		"xqest_replica_stale",
		"xqest_replica_reconnects_total",
		"xqest_replica_stream_errors_total",
		"xqest_replica_frames_rejected_total",
		"xqest_replica_records_applied_total",
		"xqest_replica_snapshots_applied_total",
		"xqest_replica_heartbeats_total",
		"xqest_replica_bytes_received_total",
	} {
		if !strings.Contains(fm, "# TYPE "+fam+" ") {
			t.Errorf("follower /metrics missing family %s", fam)
		}
	}
	lm := get(leaderTS.URL)
	for _, fam := range []string{
		"xqest_replica_streams_total",
		"xqest_replica_active_streams",
		"xqest_replica_bytes_shipped_total",
		"xqest_replica_records_shipped_total",
		"xqest_replica_snapshots_shipped_total",
	} {
		if !strings.Contains(lm, "# TYPE "+fam+" ") {
			t.Errorf("leader /metrics missing family %s", fam)
		}
	}
}

func TestFollowerRequiresDurableDatabase(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(db, Config{
		Options:   xmlest.Options{GridSize: 4},
		FollowURL: "http://127.0.0.1:1",
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err == nil || !strings.Contains(err.Error(), "durable") {
		t.Fatalf("non-durable follower accepted: %v", err)
	}
}
