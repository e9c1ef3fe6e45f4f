// Facade tests for the serving hooks added for the daemon: batched
// snapshot-consistent estimation, corpus stats, and option validation
// at the facade boundary.
package xmlest_test

import (
	"strings"
	"sync"
	"testing"

	"xmlest"
)

func openDepts(t *testing.T) *xmlest.Database {
	t.Helper()
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	return db
}

func TestEstimateBatchMatchesSingles(t *testing.T) {
	db := openDepts(t)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"//faculty//TA", "//department//faculty", "//faculty//TA"}
	batch, err := est.EstimateBatch(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Version != est.Version() {
		t.Errorf("batch version %d != estimator version %d", batch.Version, est.Version())
	}
	if len(batch.Results) != len(patterns) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(patterns))
	}
	for i, src := range patterns {
		single, err := est.Estimate(src)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Results[i].Estimate != single.Estimate {
			t.Errorf("pattern %q: batch %v != single %v", src, batch.Results[i].Estimate, single.Estimate)
		}
	}

	if _, err := est.EstimateBatch([]string{"//faculty//TA", "//[["}); err == nil {
		t.Error("batch with a bad pattern did not fail")
	}
}

// TestEstimateBatchSnapshotConsistent races appends against batches
// holding a duplicated pattern: both copies must always agree, because
// the whole batch is served from one pinned shard set.
func TestEstimateBatchSnapshotConsistent(t *testing.T) {
	db := openDepts(t)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Append(strings.NewReader(dept2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	patterns := []string{"//faculty//TA", "//staff", "//faculty//TA"}
	for i := 0; i < 200; i++ {
		batch, err := est.EstimateBatch(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Results[0].Estimate != batch.Results[2].Estimate {
			t.Fatalf("iteration %d: duplicated pattern disagreed within one batch: %v != %v",
				i, batch.Results[0].Estimate, batch.Results[2].Estimate)
		}
	}
	close(stop)
	wg.Wait()
}

func TestDatabaseStats(t *testing.T) {
	db := openDepts(t)
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Shards != 2 || st.Docs != 2 || st.SummaryOnlyShards != 0 {
		t.Errorf("stats = %+v, want 2 shards, 2 docs", st)
	}
	if st.Nodes == 0 || st.Predicates == 0 {
		t.Errorf("stats = %+v, want nonzero nodes and predicates", st)
	}
	if st.Version != db.Version() {
		t.Errorf("stats version %d != db version %d", st.Version, db.Version())
	}
}

func TestNewEstimatorValidatesOptions(t *testing.T) {
	db := openDepts(t)
	bad := []xmlest.Options{
		{GridSize: -1},
		{GridSize: 1 << 20},
		{BuildWorkers: -3},
	}
	for _, opts := range bad {
		if _, err := db.NewEstimator(opts); err == nil {
			t.Errorf("options %+v accepted, want a validation error", opts)
		}
	}
	// Zero values still select defaults.
	est, err := db.NewEstimator(xmlest.Options{})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if _, err := est.Estimate("//faculty//TA"); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateBatchIntoReusesDst pins the pooled batch path: reusing
// one result slice across calls (as the daemon's request scratch does)
// returns bit-identical estimates to fresh calls, and the reused slice
// does not reallocate once warm.
func TestEstimateBatchIntoReusesDst(t *testing.T) {
	db := openDepts(t)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"//faculty//TA", "//department//faculty"}
	fresh, err := est.EstimateBatch(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var dst []xmlest.Result
	for round := 0; round < 3; round++ {
		version, results, err := est.EstimateBatchInto(patterns, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		if version != fresh.Version {
			t.Fatalf("round %d: version %d != %d", round, version, fresh.Version)
		}
		if len(results) != len(patterns) {
			t.Fatalf("round %d: %d results", round, len(results))
		}
		for i := range results {
			if results[i].Estimate != fresh.Results[i].Estimate {
				t.Fatalf("round %d pattern %d: pooled %v != fresh %v",
					round, i, results[i].Estimate, fresh.Results[i].Estimate)
			}
		}
		if round > 0 && len(dst) > 0 && &results[0] != &dst[0] {
			t.Fatalf("round %d: dst not reused", round)
		}
		dst = results
	}
	// Singles agree with the pooled batch bit-for-bit.
	for i, p := range patterns {
		single, err := est.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		if single.Estimate != fresh.Results[i].Estimate {
			t.Fatalf("single %s %v != batch %v", p, single.Estimate, fresh.Results[i].Estimate)
		}
	}
}
