package xmlest_test

import (
	"strings"
	"testing"

	"xmlest"
	"xmlest/internal/datagen"
)

// TestEstimateBatchIntoHotAllocs pins the daemon's read path at zero
// allocations: once every pattern is compiled and bound, a batch
// through EstimateBatchInto with a reused result slice allocates
// nothing, on one shard and after an append adds a second.
func TestEstimateBatchIntoHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 2002, Scale: 0.05})
	db := xmlest.FromCatalog(datagen.DBLPCatalog(tree))
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{
		"//article//author",
		"//article[.//author]//cite",
		"//article[./url]//{conf}",
	}
	dst := make([]xmlest.Result, 0, len(patterns))
	run := func() {
		if _, _, err := est.EstimateBatchInto(patterns, dst); err != nil {
			t.Fatal(err)
		}
	}
	run() // compile and bind
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("hot EstimateBatchInto on one shard: %v allocs/run, want 0", n)
	}
	if _, err := db.Append(strings.NewReader("<dblp><article><author>a</author><cite>c</cite></article></dblp>")); err != nil {
		t.Fatal(err)
	}
	run() // rebind to the new shard set
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("hot EstimateBatchInto on two shards: %v allocs/run, want 0", n)
	}
}
