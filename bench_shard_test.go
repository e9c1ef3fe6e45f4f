// Benchmarks of the sharded estimator lifecycle — the PR 2 headline
// series. BenchmarkAppendToVisible measures the time from "document
// appended" to "estimate reflects it" at growing corpus sizes: with
// the sharded architecture only the new shard is summarized, so the
// time is flat in the corpus size, where a monolithic rebuild
// (BenchmarkAppendRebuildMonolithic) grows linearly.
package xmlest_test

import (
	"fmt"
	"testing"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// benchDoc generates one DBLP-shaped document (~3k nodes at this
// scale), distinct per seed.
func benchDoc(seed int64) *xmltree.Tree {
	return datagen.GenerateDBLP(datagen.DBLPConfig{Seed: seed, Scale: 0.02})
}

// benchCorpus builds a sharded database holding n document shards and
// a live estimator over them.
func benchCorpus(b *testing.B, n int) (*xmlest.Database, *xmlest.Estimator) {
	b.Helper()
	db := xmlest.FromTree(benchDoc(1))
	for i := 1; i < n; i++ {
		if _, err := db.AppendTree(benchDoc(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		b.Fatal(err)
	}
	return db, est
}

// BenchmarkAppendToVisible times one append-to-visible cycle — Append
// of one document plus the first Estimate that reflects it — against
// corpora of 1, 10 and 40 shards. The acceptance claim is that the
// numbers stay flat as the corpus grows.
func BenchmarkAppendToVisible(b *testing.B) {
	b.ReportAllocs()
	for _, shards := range []int{1, 10, 40} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			db, est := benchCorpus(b, shards)
			doc := benchDoc(999)
			before, err := est.Estimate("//article//author")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := db.AppendTree(doc)
				if err != nil {
					b.Fatal(err)
				}
				res, err := est.Estimate("//article//author")
				if err != nil {
					b.Fatal(err)
				}
				if res.Estimate <= before.Estimate {
					b.Fatal("append not visible")
				}
				b.StopTimer()
				if _, err := db.DropShard(info.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAppendRebuildMonolithic is the before picture: making one
// appended document visible by rebuilding the whole monolithic summary
// (merge, re-materialize the catalog, rebuild every histogram). Grows
// linearly with the corpus.
func BenchmarkAppendRebuildMonolithic(b *testing.B) {
	b.ReportAllocs()
	for _, shards := range []int{1, 10, 40} {
		b.Run(fmt.Sprintf("docs=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			corpus := make([]*xmltree.Tree, shards)
			for i := range corpus {
				corpus[i] = benchDoc(int64(i + 1))
			}
			doc := benchDoc(999)
			spec := predicate.Spec{AllTags: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				merged := xmltree.Merge(append(append([]*xmltree.Tree{}, corpus...), doc)...)
				cat := spec.Build(merged)
				if _, err := core.NewEstimator(cat, core.Options{GridSize: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedEstimate times a hot estimate against sharded
// corpora of growing width: the binding's shard-order sum is computed
// on its first estimate, so a hot estimate should not grow with width.
func BenchmarkShardedEstimate(b *testing.B) {
	b.ReportAllocs()
	for _, shards := range []int{10, 40} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			db := xmlest.FromTree(benchDoc(1))
			for i := 1; i < shards; i++ {
				if _, err := db.AppendTree(benchDoc(int64(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
			db.AddAllTagPredicates()
			est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := est.Estimate("//article//author"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Estimate("//article//author"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot times taking a pinned snapshot (a pointer copy).
func BenchmarkSnapshot(b *testing.B) {
	b.ReportAllocs()
	_, est := benchCorpus(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := est.Snapshot(); s == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkCompact times one full compaction round merging ten ~3k-node
// shards into one.
func BenchmarkCompact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _ := benchCorpus(b, 10)
		b.StartTimer()
		merged, err := db.Compact(xmlest.CompactionPolicy{TierRatio: 1e9})
		if err != nil {
			b.Fatal(err)
		}
		if merged != 10 {
			b.Fatalf("merged %d, want 10", merged)
		}
	}
}
