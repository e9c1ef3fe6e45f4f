package xmlest

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"xmlest/internal/shard"
	"xmlest/internal/xmltree"
)

// fig1Bootstrap is the durable-facade test corpus: the paper's Fig 1
// document with the all-tags vocabulary.
func fig1Bootstrap() (*Database, error) {
	db := FromTree(xmltree.Fig1Document())
	db.AddAllTagPredicates()
	return db, nil
}

var facadePatterns = []string{
	"//department//faculty",
	"//department//faculty[.//TA][.//RA]",
	"//department//staff",
}

func facadeDoc(i int) string {
	return fmt.Sprintf(
		"<department><faculty>f%d<TA>a</TA><RA>b</RA></faculty><staff>s%d</staff></department>", i, i)
}

func estimateFacade(t *testing.T, db *Database) []float64 {
	t.Helper()
	est, err := db.NewEstimator(Options{GridSize: 5})
	if err != nil {
		t.Fatal(err)
	}
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

// TestOpenDurableRecoveryBitIdentical is the facade-level pinned test:
// a durable database that crashes (abandoned without Close) recovers
// to estimates bit-identical to a never-crashed database fed the same
// batches, at a version no lower than any acknowledged one.
func TestOpenDurableRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Options: Options{GridSize: 5}, Bootstrap: fig1Bootstrap}
	db, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("OpenDurable returned a non-durable database")
	}
	const batches = 4
	var lastAck uint64
	for i := 0; i < batches; i++ {
		info, err := db.Append(strings.NewReader(facadeDoc(i)))
		if err != nil {
			t.Fatal(err)
		}
		if info.WALSeq != uint64(i+1) {
			t.Fatalf("append %d: wal seq %d", i, info.WALSeq)
		}
		lastAck = info.Version
	}
	want := estimateFacade(t, db)
	// Crash: drop the handle without Close or Checkpoint.

	db2, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := db2.Recovery()
	if !ok || rec.ReplayedRecords != batches {
		t.Fatalf("recovery: ok=%v %+v", ok, rec)
	}
	if db2.Version() < lastAck {
		t.Fatalf("recovered version %d below last acked %d", db2.Version(), lastAck)
	}
	got := estimateFacade(t, db2)

	// The never-crashed control: same bootstrap, same batches.
	control, err := fig1Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if _, err := control.Append(strings.NewReader(facadeDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	ref := estimateFacade(t, control)
	for i := range ref {
		if math.Float64bits(want[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("pre-crash estimate %q: %v != control %v", facadePatterns[i], want[i], ref[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("recovered estimate %q: %v != control %v (not bit-identical)",
				facadePatterns[i], got[i], ref[i])
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean Close checkpointed: the next boot replays nothing.
	db3, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rec, _ = db3.Recovery()
	if rec.ReplayedRecords != 0 || rec.CheckpointShards == 0 {
		t.Fatalf("post-Close recovery should be checkpoint-only: %+v", rec)
	}
	got3 := estimateFacade(t, db3)
	for i := range ref {
		if math.Float64bits(got3[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("checkpoint-loaded estimate %q: %v != control %v", facadePatterns[i], got3[i], ref[i])
		}
	}

	// Every checkpointed shard recovers summary-only: it estimates but
	// holds no documents, so exact counting refuses it and compaction
	// leaves it alone.
	recovered := db3.Shards()
	for _, sh := range recovered {
		if !sh.SummaryOnly {
			t.Fatalf("checkpoint-loaded shard %+v is not summary-only", sh)
		}
	}
	if _, err := db3.Count(facadePatterns[0]); !errors.Is(err, shard.ErrSummaryOnly) {
		t.Fatalf("Count over summary-only shards: err = %v, want ErrSummaryOnly", err)
	}
	policy := CompactionPolicy{MinMerge: 2, MaxShards: 1}
	if merged, err := db3.Compact(policy); err != nil || merged != 0 {
		t.Fatalf("compacting only summary-only shards: merged %d, err %v", merged, err)
	}

	// Documents appended after recovery join the summary-only shards'
	// estimates exactly as they join the never-crashed control's.
	for i := batches; i < batches+2; i++ {
		info, err := db3.Append(strings.NewReader(facadeDoc(i)))
		if err != nil {
			t.Fatal(err)
		}
		if info.SummaryOnly || info.WALSeq == 0 {
			t.Fatalf("post-recovery append %+v: want a WAL-logged, document-backed shard", info)
		}
		if _, err := control.Append(strings.NewReader(facadeDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	ref = estimateFacade(t, control)
	got4 := estimateFacade(t, db3)
	for i := range ref {
		if math.Float64bits(got4[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("estimate %q over summary-only and live shards: %v != control %v", facadePatterns[i], got4[i], ref[i])
		}
		if got4[i] == got3[i] {
			t.Fatalf("estimate %q did not move after the appends: %v", facadePatterns[i], got4[i])
		}
	}

	// Compaction merges the two document-backed shards and keeps every
	// summary-only shard as it was.
	if merged, err := db3.Compact(policy); err != nil || merged == 0 {
		t.Fatalf("compacting the appended shards: merged %d, err %v", merged, err)
	}
	after := db3.Shards()
	if len(after) != len(recovered)+1 {
		t.Fatalf("after compaction %d shards, want the %d summary-only ones plus one merged shard", len(after), len(recovered))
	}
	kept := make(map[uint64]bool, len(after))
	for _, sh := range after {
		kept[sh.ID] = sh.SummaryOnly
	}
	for _, sh := range recovered {
		if !kept[sh.ID] {
			t.Fatalf("compaction touched summary-only shard %d", sh.ID)
		}
	}
}

// TestDurableAppendTree covers the re-serialization path: trees
// appended to a durable database survive recovery with identical
// estimates.
func TestDurableAppendTree(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Options: Options{GridSize: 5}, Bootstrap: fig1Bootstrap}
	db, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseString(facadeDoc(7))
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.AppendTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALSeq != 1 {
		t.Fatalf("AppendTree skipped the WAL: seq %d", info.WALSeq)
	}
	want := estimateFacade(t, db)
	db2, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := estimateFacade(t, db2)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("AppendTree recovery changed %q: %v != %v", facadePatterns[i], got[i], want[i])
		}
	}
}

// TestDurableFacadeMisc covers the non-durable guard rails and stats.
func TestDurableFacadeMisc(t *testing.T) {
	plain, err := fig1Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Durable() {
		t.Fatal("plain database claims durability")
	}
	if _, err := plain.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a plain database succeeded")
	}
	if err := plain.Close(); err != nil {
		t.Fatalf("Close on a plain database: %v", err)
	}
	if _, ok := plain.DurabilityStats(); ok {
		t.Fatal("plain database reported durability stats")
	}

	dir := t.TempDir()
	db, err := OpenDurable(dir, DurableConfig{Options: Options{GridSize: 5}, Bootstrap: fig1Bootstrap})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append(strings.NewReader(facadeDoc(0))); err != nil {
		t.Fatal(err)
	}
	s, ok := db.DurabilityStats()
	if !ok || s.LastSeq != 1 || s.Fsync != "always" {
		t.Fatalf("stats: ok=%v %+v", ok, s)
	}
	if _, err := OpenDurable(dir, DurableConfig{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}
