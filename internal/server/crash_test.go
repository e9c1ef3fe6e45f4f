package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlest"
)

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newDurableTestServer mounts a server over an already-opened durable
// database.
func newDurableTestServer(t *testing.T, db *xmlest.Database) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(db, Config{Options: xmlest.Options{GridSize: 4}, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAppendXML(t *testing.T, base, doc string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/append", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// jsonDecode is decode without t.Fatal, for goroutines.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// durableBootstrap seeds the crash tests' corpus: dept1 with the
// all-tags vocabulary.
func durableBootstrap() (*xmlest.Database, error) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		return nil, err
	}
	db.AddAllTagPredicates()
	return db, nil
}

func openDurableTestDB(t *testing.T, dir string) *xmlest.Database {
	t.Helper()
	db, err := xmlest.OpenDurable(dir, xmlest.DurableConfig{
		Options:   xmlest.Options{GridSize: 4},
		Bootstrap: durableBootstrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDurableServer exercises the in-process durable serving surface:
// append responses carry WAL watermarks, /stats grows a durability
// section, shutdown checkpoints, and a reopened directory serves the
// same versions and estimates.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	db := openDurableTestDB(t, dir)
	s, ts := newDurableTestServer(t, db)

	// Append: the response proves the batch hit the WAL and, under the
	// default always policy, was fsynced before the ack.
	resp := postAppendXML(t, ts.URL, dept2)
	ar := decode[AppendResponse](t, resp)
	if ar.WALSeq != 1 || ar.Durable == nil || !*ar.Durable {
		t.Fatalf("append response lacks durability proof: %+v", ar)
	}

	// /stats reports the durability families; under the always policy
	// the acked record is already the durable watermark.
	st := getStats(t, ts.URL)
	if last, durable := value(t, st, "xqest_wal_last_seq"), value(t, st, "xqest_wal_durable_seq"); last != 1 || durable != 1 {
		t.Fatalf("stats durability: wal last seq %v, durable seq %v, want 1 and 1", last, durable)
	}

	// /shards shows per-shard WAL watermarks.
	shards := decode[ShardsResponse](t, mustGet(t, ts.URL+"/shards"))
	var seqs []uint64
	for _, sh := range shards.Shards {
		seqs = append(seqs, sh.WALSeq)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("shard wal seqs %v, want [0 1]", seqs)
	}

	est := decode[EstimateResponse](t, postJSON(t, ts.URL+"/estimate",
		EstimateRequest{Pattern: "//department//faculty"}))
	preVersion := est.Version

	// Graceful shutdown = checkpoint: the WAL empties and the manifest
	// lands.
	{
		ctx, cancel := timeoutCtx(t)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatalf("shutdown did not checkpoint: %v", err)
	}

	// Reopen: same version watermark, bit-identical estimate.
	db2 := openDurableTestDB(t, dir)
	defer db2.Close()
	rec, _ := db2.Recovery()
	if rec.ReplayedRecords != 0 {
		t.Fatalf("post-shutdown boot replayed %d records, want 0", rec.ReplayedRecords)
	}
	_, ts2 := newDurableTestServer(t, db2)
	est2 := decode[EstimateResponse](t, postJSON(t, ts2.URL+"/estimate",
		EstimateRequest{Pattern: "//department//faculty"}))
	if est2.Version < preVersion {
		t.Fatalf("version regressed across restart: %d < %d", est2.Version, preVersion)
	}
	if math.Float64bits(*est2.Estimate) != math.Float64bits(*est.Estimate) {
		t.Fatalf("estimate changed across restart: %v != %v", *est2.Estimate, *est.Estimate)
	}
}

// TestCheckpointLoop verifies the background checkpoint loop persists
// and truncates without being asked.
func TestCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	db := openDurableTestDB(t, dir)
	defer db.Close()
	s, err := New(db, Config{
		Addr:               "127.0.0.1:0",
		Options:            xmlest.Options{GridSize: 4},
		CheckpointInterval: 5 * time.Millisecond,
		Logger:             discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := timeoutCtx(t)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds, _ := db.DurabilityStats()
		if ds.CheckpointWALSeq >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint loop never covered seq 1: %+v", ds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- kill -9 integration test -------------------------------------

// Env vars steering the re-exec'd child daemon.
const (
	crashChildEnv = "XQESTD_CRASH_CHILD_DIR"
	crashAddrEnv  = "XQESTD_CRASH_ADDR_FILE"
)

// TestCrashDaemonChild is the re-exec helper: under crashChildEnv it
// becomes a durable estimation daemon and serves until killed. It is
// skipped in normal test runs.
func TestCrashDaemonChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashRecoverySIGKILL")
	}
	db, err := xmlest.OpenDurable(dir, xmlest.DurableConfig{
		Options:   xmlest.Options{GridSize: 4},
		Bootstrap: durableBootstrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{Addr: "127.0.0.1:0", Options: xmlest.Options{GridSize: 4}, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Publish the bound address atomically (write + rename) so the
	// parent never reads a partial file.
	addrFile := os.Getenv(crashAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+addr.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	select {} // serve until SIGKILL
}

// startCrashDaemon re-execs the test binary as a daemon over dir and
// waits for it to report healthy.
func startCrashDaemon(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashDaemonChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir, crashAddrEnv+"="+addrFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			base = string(b)
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd, base
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("child daemon never became healthy")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestCrashRecoverySIGKILL is the end-to-end crash test: a real
// daemon process accepts appends over HTTP, dies by SIGKILL mid-load,
// restarts over the same data directory, and must serve every
// acknowledged batch at a version no lower than the acks — plus
// estimates bit-identical to an uncrashed control over the same
// batches.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	cmd1, base := startCrashDaemon(t, dir)

	// Phase 1: sequential acknowledged appends with unique tags.
	type acked struct {
		tag     string
		doc     string
		version uint64
	}
	var acks []acked
	for i := 0; i < 8; i++ {
		tag := fmt.Sprintf("crashdoc%d", i)
		doc := fmt.Sprintf("<department><%s>payload %d</%s></department>", tag, i, tag)
		resp, err := http.Post(base+"/append", "application/xml", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		ar := decode[AppendResponse](t, resp)
		if ar.Durable == nil || !*ar.Durable {
			t.Fatalf("append %d not durable at ack: %+v", i, ar)
		}
		acks = append(acks, acked{tag: tag, doc: doc, version: ar.Version})
	}

	// Phase 2: concurrent load, then SIGKILL mid-flight. Acks recorded
	// up to the kill instant must all survive; un-acked in-flight
	// appends may or may not (both are correct).
	var mu sync.Mutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tag := fmt.Sprintf("loaddoc%dx%d", w, i)
				doc := fmt.Sprintf("<department><%s>p</%s></department>", tag, tag)
				resp, err := http.Post(base+"/append", "application/xml", strings.NewReader(doc))
				if err != nil {
					return // the kill landed mid-request
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					continue // backpressure
				}
				var ar AppendResponse
				err = jsonDecode(resp, &ar)
				if err != nil {
					return
				}
				mu.Lock()
				acks = append(acks, acked{tag: tag, doc: doc, version: ar.Version})
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	// SIGKILL while appenders are mid-flight: no drain, no checkpoint.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()
	stop.Store(true)
	wg.Wait()

	// Phase 3: restart over the same directory and verify.
	_, base2 := startCrashDaemon(t, dir)
	mu.Lock()
	defer mu.Unlock()
	var maxAck uint64
	for _, a := range acks {
		if a.version > maxAck {
			maxAck = a.version
		}
	}
	probe := decode[EstimateResponse](t, postJSON(t, base2+"/estimate",
		EstimateRequest{Pattern: "//department"}))
	if probe.Version < maxAck {
		t.Fatalf("recovered version %d below max acked %d", probe.Version, maxAck)
	}
	// Every acknowledged batch must be estimable: its unique tag is
	// known (the batch's shard was recovered) and counts at least one.
	for _, a := range acks {
		resp := postJSON(t, base2+"/estimate", EstimateRequest{Pattern: "//" + a.tag})
		er := decode[EstimateResponse](t, resp)
		if er.Estimate == nil || *er.Estimate < 1 {
			t.Fatalf("acked batch %q lost by the crash (estimate %+v)", a.tag, er.Estimate)
		}
	}

	// Exactness: an uncrashed control fed the same acked batches (the
	// recovered daemon may hold extra batches that were logged but
	// never acked, so compare only when none landed — detect via shard
	// count... instead compare per-tag estimates, which are shard-local
	// and unaffected by extra batches with other tags).
	control, err := durableBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if _, err := control.Append(strings.NewReader(a.doc)); err != nil {
			t.Fatal(err)
		}
	}
	cest, err := control.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		want, err := cest.Estimate("//" + a.tag)
		if err != nil {
			t.Fatal(err)
		}
		er := decode[EstimateResponse](t, postJSON(t, base2+"/estimate",
			EstimateRequest{Pattern: "//" + a.tag}))
		if math.Float64bits(*er.Estimate) != math.Float64bits(want.Estimate) {
			t.Fatalf("recovered estimate for %q not bit-identical: %v != %v",
				a.tag, *er.Estimate, want.Estimate)
		}
	}
}
