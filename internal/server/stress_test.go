package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlest"
)

// TestConcurrentServingConsistency hammers /estimate, /append and
// /compact concurrently (run under -race) and asserts the serving
// contract: every response is computed against one consistent
// snapshot — a pattern repeated within a batch returns identical
// estimates, versions never run backwards for any client, and an
// append's documents are visible to every later estimate.
func TestConcurrentServingConsistency(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	s, err := New(db, Config{Options: xmlest.Options{GridSize: 4}, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		estimators = 4
		appenders  = 2
		iterations = 40
	)

	var wg sync.WaitGroup
	errCh := make(chan error, estimators+appenders+1)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	post := func(path, contentType, body string) (*http.Response, error) {
		return http.Post(ts.URL+path, contentType, strings.NewReader(body))
	}
	estimate := func(patterns []string) (EstimateResponse, bool) {
		enc, _ := json.Marshal(EstimateRequest{Patterns: patterns})
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(enc))
		if err != nil {
			fail("estimate: %v", err)
			return EstimateResponse{}, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fail("estimate: HTTP %d: %s", resp.StatusCode, body)
			return EstimateResponse{}, false
		}
		var er EstimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			fail("estimate decode: %v", err)
			return EstimateResponse{}, false
		}
		return er, true
	}

	// Estimate workers issue batches with a deliberately repeated
	// pattern: under concurrent appends, only snapshot-consistent
	// serving keeps the duplicates identical.
	batch := []string{"//faculty//TA", "//department//faculty", "//faculty//TA"}
	for w := 0; w < estimators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; i < iterations; i++ {
				er, ok := estimate(batch)
				if !ok {
					return
				}
				if er.Results[0].Estimate != er.Results[2].Estimate {
					fail("batch not snapshot-consistent: %v != %v (version %d)",
						er.Results[0].Estimate, er.Results[2].Estimate, er.Version)
					return
				}
				if er.Version < lastVersion {
					fail("version ran backwards: %d after %d", er.Version, lastVersion)
					return
				}
				lastVersion = er.Version
			}
		}()
	}

	// Append workers land documents and verify visibility: their next
	// estimate must serve from a snapshot at or past the append's.
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				resp, err := post("/append", "application/xml", dept2)
				if err != nil {
					fail("append: %v", err)
					return
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					// Backpressure is a valid answer under load.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue
				}
				var ar AppendResponse
				err = json.NewDecoder(resp.Body).Decode(&ar)
				resp.Body.Close()
				if err != nil {
					fail("append decode: %v", err)
					return
				}
				er, ok := estimate([]string{"//faculty//TA"})
				if !ok {
					return
				}
				if er.Version < ar.Version {
					fail("append-to-visible violated: estimate version %d < append version %d",
						er.Version, ar.Version)
					return
				}
			}
		}()
	}

	// One compactor churns the shard set underneath everyone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations/2; i++ {
			resp, err := post("/compact", "application/json", "{}")
			if err != nil {
				fail("compact: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("compact: HTTP %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Everything the appenders landed is still answerable, exactly.
	if docs := value(t, getStats(t, ts.URL), "xqest_corpus_docs"); docs < 1 {
		t.Fatalf("corpus lost documents: %v docs", docs)
	}
}
