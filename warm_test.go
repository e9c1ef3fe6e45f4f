package xmlest

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmlest/internal/metrics"
	"xmlest/internal/shard"
	"xmlest/internal/wal"
)

// prepareCounts reads a store's binding counters off its gather:
// bindings compiled on a reader's demand (xqest_prepare_fanout_total)
// and by publish before a set became visible
// (xqest_prepare_warmed_total).
func prepareCounts(t *testing.T, st *shard.Store) (fanout, warmed float64) {
	t.Helper()
	fams := metrics.Gather(st)
	fanout, ok1 := fams.Value("xqest_prepare_fanout_total")
	warmed, ok2 := fams.Value("xqest_prepare_warmed_total")
	if !ok1 || !ok2 {
		t.Fatal("store gather lacks the prepare counters")
	}
	return fanout, warmed
}

// freshSnapshot is an estimator pinned to db's serving set with a
// compiled-query memo of its own, so its estimates share nothing with
// the database's memo.
func freshSnapshot(db *Database, opts Options) *Estimator {
	set := db.store.Current()
	return &Estimator{store: shard.StoreOf(set), opts: opts, pinned: set}
}

// readAll estimates every facade pattern with est.
func readAll(t *testing.T, est *Estimator) []float64 {
	t.Helper()
	out := make([]float64, len(facadePatterns))
	for i, p := range facadePatterns {
		res, err := est.Estimate(p)
		if err != nil {
			t.Fatalf("estimate %q: %v", p, err)
		}
		out[i] = res.Estimate
	}
	return out
}

// TestPublishWarmsCompiledQueries: after every kind of set swap, the
// first estimate of each query read before the swap finds a binding
// the swap's writer compiled, so no reader compiles one, and the
// estimate is bit-equal to a fresh estimator's at the new version. A
// query not read since the previous swap is not warmed.
func TestPublishWarmsCompiledQueries(t *testing.T) {
	opts := Options{GridSize: 5}
	durableCfg := DurableConfig{Options: opts, Bootstrap: fig1Bootstrap}
	plain := func(t *testing.T, appends int) *Database {
		db, err := fig1Bootstrap()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < appends; i++ {
			if _, err := db.Append(strings.NewReader(facadeDoc(i))); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	durable := func(t *testing.T) *Database {
		db, err := OpenDurable(t.TempDir(), durableCfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	cases := []struct {
		name string
		// setup returns the database the estimator reads and the swap
		// to publish on it.
		setup func(t *testing.T) (*Database, func() error)
	}{
		{"append", func(t *testing.T) (*Database, func() error) {
			db := plain(t, 0)
			return db, func() error {
				_, err := db.Append(strings.NewReader(facadeDoc(7)))
				return err
			}
		}},
		{"durable group commit", func(t *testing.T) (*Database, func() error) {
			db := durable(t)
			return db, func() error {
				_, err := db.Append(strings.NewReader(facadeDoc(7)))
				return err
			}
		}},
		{"compact", func(t *testing.T) (*Database, func() error) {
			db := plain(t, 3)
			return db, func() error {
				n, err := db.Compact(CompactionPolicy{TierRatio: 1e9})
				if err == nil && n == 0 {
					t.Fatal("compaction merged nothing")
				}
				return err
			}
		}},
		{"drop", func(t *testing.T) (*Database, func() error) {
			db := plain(t, 2)
			return db, func() error {
				shards := db.Shards()
				_, err := db.DropShard(shards[len(shards)-1].ID)
				return err
			}
		}},
		{"replica apply", func(t *testing.T) (*Database, func() error) {
			leader, follower := durable(t), durable(t)
			return follower, func() error {
				for i := 0; i < 2; i++ {
					if _, err := leader.Append(strings.NewReader(facadeDoc(i))); err != nil {
						return err
					}
				}
				var recs []wal.Record
				_, err := leader.DurableBackend().ReadDurableWAL(follower.DurableSeq(), func(rec wal.Record) error {
					cp := wal.Record{Seq: rec.Seq, Version: rec.Version}
					for _, d := range rec.Docs {
						cp.Docs = append(cp.Docs, bytes.Clone(d))
					}
					recs = append(recs, cp)
					return nil
				})
				if err != nil {
					return err
				}
				return follower.DurableBackend().ApplyReplicated(recs)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, swap := c.setup(t)
			est, err := db.NewEstimator(opts)
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, est)
			version := est.Version()
			_, warmed0 := prepareCounts(t, db.store)
			if err := swap(); err != nil {
				t.Fatal(err)
			}
			if est.Version() == version {
				t.Fatal("the swap published no new set")
			}
			fanout, warmed := prepareCounts(t, db.store)
			if warmed-warmed0 != float64(len(facadePatterns)) {
				t.Fatalf("the swap warmed %v queries, want %d", warmed-warmed0, len(facadePatterns))
			}
			got := readAll(t, est)
			if after, _ := prepareCounts(t, db.store); after != fanout {
				t.Fatalf("first estimates after the swap compiled %v bindings on demand, want 0", after-fanout)
			}
			fresh := freshSnapshot(db, opts)
			if fresh.Version() != est.Version() {
				t.Fatalf("fresh snapshot at version %d, estimator at %d", fresh.Version(), est.Version())
			}
			for i, want := range readAll(t, fresh) {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s: warmed %v, fresh %v", facadePatterns[i], got[i], want)
				}
			}
		})
	}

	t.Run("pinned snapshot", func(t *testing.T) {
		db := plain(t, 0)
		est, err := db.NewEstimator(opts)
		if err != nil {
			t.Fatal(err)
		}
		snap := est.Snapshot()
		before := readAll(t, snap)
		// The snapshot's misses stay private: the live estimator still
		// compiles every query itself.
		fanout, _ := prepareCounts(t, db.store)
		readAll(t, est)
		if after, _ := prepareCounts(t, db.store); after-fanout != float64(len(facadePatterns)) {
			t.Fatalf("live estimator compiled %v bindings after a snapshot read, want %d", after-fanout, len(facadePatterns))
		}
		if _, err := db.Append(strings.NewReader(facadeDoc(1))); err != nil {
			t.Fatal(err)
		}
		// Once the live estimator has moved on, the stale snapshot binds
		// its old set on demand, without displacing the live bindings.
		readAll(t, est)
		fanout, _ = prepareCounts(t, db.store)
		stale := readAll(t, snap)
		for i := range before {
			if math.Float64bits(stale[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: stale snapshot %v, before the append %v", facadePatterns[i], stale[i], before[i])
			}
		}
		after, _ := prepareCounts(t, db.store)
		if after-fanout != float64(len(facadePatterns)) {
			t.Fatalf("stale snapshot compiled %v bindings, want %d", after-fanout, len(facadePatterns))
		}
		readAll(t, est)
		if again, _ := prepareCounts(t, db.store); again != after {
			t.Fatalf("live estimator compiled %v bindings after a stale snapshot read, want 0", again-after)
		}
	})

	t.Run("loaded estimator", func(t *testing.T) {
		est, err := plain(t, 2).NewEstimator(opts)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := est.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEstimator(blob)
		if err != nil {
			t.Fatal(err)
		}
		want := readAll(t, est)
		for round := 0; round < 2; round++ {
			for i, got := range readAll(t, loaded) {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s: loaded %v, live %v", facadePatterns[i], got, want[i])
				}
			}
		}
		if fanout, _ := prepareCounts(t, loaded.store); fanout != float64(len(facadePatterns)) {
			t.Fatalf("loaded estimator compiled %v bindings over two rounds, want %d", fanout, len(facadePatterns))
		}
	})

	t.Run("not read since the last publish", func(t *testing.T) {
		db := plain(t, 0)
		est, err := db.NewEstimator(opts)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, est)
		for i := 0; i < 2; i++ {
			if _, err := db.Append(strings.NewReader(facadeDoc(i))); err != nil {
				t.Fatal(err)
			}
		}
		// The first append warmed every query; nothing read them before
		// the second, so it warmed none, and each query's next estimate
		// compiles its binding on demand.
		fanout, warmed := prepareCounts(t, db.store)
		if warmed != float64(len(facadePatterns)) {
			t.Fatalf("%v warm bindings over two appends, want %d (the first append only)", warmed, len(facadePatterns))
		}
		readAll(t, est)
		if after, _ := prepareCounts(t, db.store); after-fanout != float64(len(facadePatterns)) {
			t.Fatalf("%v bindings compiled on demand, want %d", after-fanout, len(facadePatterns))
		}
	})
}

// TestServedEstimatesMatchFreshSnapshots races readers against an
// appender and a compactor (run it with -race): every (version,
// estimates) batch served from the shared compiled-query memo must
// equal, bit for bit, a fresh estimator pinned to the set at that
// version. A reader identifies the set it was served from by loading
// the serving set just before and just after its call; a batch whose
// call spanned two swaps cannot be attributed and is counted, not
// checked.
func TestServedEstimatesMatchFreshSnapshots(t *testing.T) {
	opts := Options{GridSize: 5}
	db, err := fig1Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	est, err := db.NewEstimator(opts)
	if err != nil {
		t.Fatal(err)
	}
	const appends = 150
	var writers, readers sync.WaitGroup
	appended, done := make(chan struct{}), make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		defer close(appended)
		for i := 0; i < appends; i++ {
			if _, err := db.Append(strings.NewReader(facadeDoc(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for {
			select {
			case <-appended:
				return
			default:
			}
			if _, err := db.Compact(CompactionPolicy{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var checked, spanned atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := db.store.Current()
				br, err := est.EstimateBatch(facadePatterns)
				after := db.store.Current()
				if err != nil {
					t.Error(err)
					return
				}
				var set *shard.Set
				switch br.Version {
				case before.Version():
					set = before
				case after.Version():
					set = after
				default:
					spanned.Add(1)
					continue
				}
				fresh := &Estimator{store: shard.StoreOf(set), opts: opts, pinned: set}
				want, err := fresh.EstimateBatch(facadePatterns)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want.Results {
					if g, w := br.Results[i].Estimate, want.Results[i].Estimate; math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("version %d %s: served %v, fresh %v", br.Version, facadePatterns[i], g, w)
						return
					}
				}
				checked.Add(1)
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if checked.Load() == 0 {
		t.Fatalf("no served batch could be checked (%d spanned a swap)", spanned.Load())
	}
	t.Logf("%d batches checked, %d spanned two swaps", checked.Load(), spanned.Load())
}
