// Facade-level tests of the shard lifecycle: append-to-visible,
// snapshot pinning and staleness, compaction, shard-set persistence
// and summary-only shards.
package xmlest_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"xmlest"
	"xmlest/internal/shard"
)

const dept1 = `<department>
	<faculty><name>A</name><TA/><TA/></faculty>
	<staff><name>B</name></staff>
</department>`

const dept2 = `<department>
	<faculty><name>C</name><TA/><TA/><TA/></faculty>
	<faculty><name>D</name><TA/></faculty>
</department>`

func TestAppendToVisible(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	snap := est.Snapshot()
	if snap.Stale() {
		t.Fatal("fresh snapshot reports stale")
	}

	info, err := db.Append(strings.NewReader(dept2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Docs != 1 || info.Nodes == 0 || info.SummaryOnly {
		t.Fatalf("appended shard info = %+v", info)
	}
	if db.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", db.ShardCount())
	}

	// The live estimator sees the new documents immediately; the pinned
	// snapshot does not, and now reports stale.
	after, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate <= before.Estimate {
		t.Fatalf("append not visible: %v -> %v", before.Estimate, after.Estimate)
	}
	pinned, err := snap.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Estimate != before.Estimate {
		t.Fatalf("snapshot estimate moved: %v != %v", pinned.Estimate, before.Estimate)
	}
	if !snap.Stale() {
		t.Fatal("snapshot not stale after append")
	}
	if est.Stale() {
		t.Fatal("live estimator reports stale")
	}

	// Exact counting sums across shards: 2 TAs + 4 TAs.
	real, err := db.Count("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if real != 6 {
		t.Fatalf("Count = %v, want 6", real)
	}
}

func TestAppendNewTagVisible(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// "RA" exists only in the appended document: unknown before the
	// append, resolvable after.
	if _, err := est.Estimate("//faculty//RA"); err == nil {
		t.Fatal("unknown tag before append: want error")
	}
	if _, err := db.Append(strings.NewReader(`<department><faculty><RA/><RA/></faculty></department>`)); err != nil {
		t.Fatal(err)
	}
	res, err := est.Estimate("//faculty//RA")
	if err != nil {
		t.Fatalf("appended tag: %v", err)
	}
	if res.Estimate <= 0 {
		t.Fatalf("estimate = %v, want > 0", res.Estimate)
	}
}

func TestDropAndCompactFacade(t *testing.T) {
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
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	shards := db.Shards()
	if len(shards) != 4 {
		t.Fatalf("%d shards, want 4", len(shards))
	}
	before, _ := est.Estimate("//faculty//TA")

	if found, err := db.DropShard(shards[3].ID); err != nil || !found {
		t.Fatalf("DropShard: found=%v err=%v", found, err)
	}
	afterDrop, _ := est.Estimate("//faculty//TA")
	if afterDrop.Estimate >= before.Estimate {
		t.Fatalf("drop not reflected: %v -> %v", before.Estimate, afterDrop.Estimate)
	}

	merged, err := db.Compact(xmlest.CompactionPolicy{TierRatio: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if merged != 3 {
		t.Fatalf("Compact merged %d, want 3", merged)
	}
	if db.ShardCount() != 1 {
		t.Fatalf("ShardCount after compact = %d, want 1", db.ShardCount())
	}
	// Exact counts are preserved exactly by compaction.
	real, err := db.Count("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if real != 10 { // 2 + 4 + 4 after dropping one dept2 shard
		t.Fatalf("Count after compact = %v, want 10", real)
	}
}

func TestShardSetPersistenceFacade(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
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
	if loaded.ShardCount() != 2 {
		t.Fatalf("loaded ShardCount = %d, want 2", loaded.ShardCount())
	}
	want, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("loaded estimate %v != original %v", got.Estimate, want.Estimate)
	}
}

func TestAppendTinyDocument(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-element document has position space [0, 6): far smaller than
	// the corpus grid. The shard grid clamps instead of rejecting the
	// append (the monolithic rebuild absorbed such documents silently).
	if _, err := db.Append(strings.NewReader(`<department><TA/></department>`)); err != nil {
		t.Fatalf("tiny append: %v", err)
	}
	res, err := est.Estimate("//department//TA")
	if err != nil {
		t.Fatalf("estimate after tiny append: %v", err)
	}
	if res.Estimate <= 0 {
		t.Fatalf("estimate = %v, want > 0", res.Estimate)
	}
	// Same ordering risk the other way: tiny shard first, estimator
	// (with a big grid) created afterwards.
	db2, err := xmlest.Open(strings.NewReader(`<a><b/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	db2.AddAllTagPredicates()
	if _, err := db2.NewEstimator(xmlest.Options{GridSize: 10}); err != nil {
		t.Fatalf("estimator over tiny corpus: %v", err)
	}
}

func TestCountUnknownPredicateErrors(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	// A typo'd predicate must error (seed behaviour), not count as 0 —
	// even when the pattern's other predicates resolve.
	if _, err := db.Count("//faculty//{typo}"); err == nil {
		t.Fatal("Count with unknown predicate: want error")
	}
}

func TestSnapshotCoreIsolation(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := est.Snapshot()
	snapCore := snap.Core()
	if snapCore == nil {
		t.Fatal("snapshot Core() = nil")
	}
	taBefore, err := snapCore.Histogram("tag=TA")
	if err != nil {
		t.Fatal(err)
	}
	// Appending after the pin must not leak into the snapshot's Core():
	// the TA histogram total stays at the pinned corpus's 6.
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	taAfter, err := snap.Core().Histogram("tag=TA")
	if err != nil {
		t.Fatal(err)
	}
	if taBefore.Total() != 6 || taAfter.Total() != 6 {
		t.Fatalf("snapshot Core() corpus moved: before=%v after=%v, want 6", taBefore.Total(), taAfter.Total())
	}
	// The live estimator's Core() does follow the append.
	taLive, err := est.Core().Histogram("tag=TA")
	if err != nil {
		t.Fatal(err)
	}
	if taLive.Total() != 10 {
		t.Fatalf("live Core() TA total = %v, want 10", taLive.Total())
	}
}

func TestCoreSeesRegisteredPredicates(t *testing.T) {
	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	if _, err := db.Append(strings.NewReader(dept2)); err != nil {
		t.Fatal(err)
	}
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.Core() == nil {
		t.Fatal("Core() = nil")
	}
	// Register a predicate after Core() was cached: the next Core()
	// must include it (multi-shard cache invalidation).
	db.AddPredicate(xmlest.Named{Alias: "isTA", Inner: xmlest.Tag{Value: "TA"}})
	if _, err := est.Core().Histogram("isTA"); err != nil {
		t.Fatalf("Core() after AddPredicate: %v", err)
	}
}

// TestStreamedShardJoinsDatabase checks that a summary-only shard (here
// one recovered from a checkpoint) joins a database's estimates next to
// document-backed shards, and that exact counting refuses it.
func TestStreamedShardJoinsDatabase(t *testing.T) {
	live, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	live.AddAllTagPredicates()
	liveEst, err := live.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, err := liveEst.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint dept2 on Close; the next boot loads it summary-only.
	dir := t.TempDir()
	cfg := xmlest.DurableConfig{
		Options: xmlest.Options{GridSize: 4},
		Bootstrap: func() (*xmlest.Database, error) {
			db, err := xmlest.Open(strings.NewReader(dept2))
			if err != nil {
				return nil, err
			}
			db.AddAllTagPredicates()
			return db, nil
		},
	}
	boot, err := xmlest.OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := xmlest.OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append(strings.NewReader(dept1)); err != nil {
		t.Fatal(err)
	}
	shards := db.Shards()
	if len(shards) != 2 || !shards[0].SummaryOnly || shards[1].SummaryOnly || shards[0].ID == shards[1].ID {
		t.Fatalf("want a summary-only shard then a document-backed one: %+v", shards)
	}

	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	after, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate <= before.Estimate {
		t.Fatalf("summary-only shard not visible: %v -> %v", before.Estimate, after.Estimate)
	}

	// The same two documents as two document-backed shards estimate the same.
	control, err := xmlest.Open(strings.NewReader(dept2))
	if err != nil {
		t.Fatal(err)
	}
	control.AddAllTagPredicates()
	if _, err := control.Append(strings.NewReader(dept1)); err != nil {
		t.Fatal(err)
	}
	controlEst, err := control.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := controlEst.Estimate("//faculty//TA")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.Estimate) != math.Float64bits(ref.Estimate) {
		t.Fatalf("estimate over summary-only and live shards %v != control %v", after.Estimate, ref.Estimate)
	}

	// Exact counting cannot cover summary-only shards.
	if _, err := db.Count("//faculty//TA"); !errors.Is(err, shard.ErrSummaryOnly) {
		t.Fatalf("Count over summary-only shard: err = %v, want ErrSummaryOnly", err)
	}
}
