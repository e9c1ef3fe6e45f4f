// Sharded-vs-monolithic equivalence: a ShardedEstimator's estimate is
// the sum of per-shard estimates, each over the shard's own uniform
// grid. That decomposition is exact with respect to a monolithic
// estimator built over the concatenated documents on the
// document-aligned grid — the grid whose buckets are the shard grids'
// buckets laid side by side, so no bucket spans a shard boundary.
// Under that grid every estimation formula (pH-Join coefficients,
// coverage fractions, participation collisions) is per-cell local and
// index-translation invariant, and cross-shard cell pairs contribute
// zero, so per-shard sums reproduce the monolithic totals to float
// accumulation order (≤ 1e-9 relative). See DESIGN.md, "Shard
// lifecycle".
package xmlest_test

import (
	"fmt"
	"testing"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/histogram"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// alignedGrid builds the document-aligned monolithic grid for a
// sequence of shard trees: each shard contributes its g uniform
// buckets, translated to the shard's position block in the
// concatenated numbering (a shard's documents occupy positions
// offset+1 .. offset+2n, with offset twice the nodes before it).
func alignedGrid(t *testing.T, shardTrees []*xmltree.Tree, g int) histogram.Grid {
	t.Helper()
	bounds := []int{0}
	offset := 0
	for s, tr := range shardTrees {
		if tr.MaxPos < 2*g {
			t.Fatalf("shard %d too small for alignment: maxPos %d < 2g %d", s, tr.MaxPos, 2*g)
		}
		uni := histogram.MustUniformGrid(g, tr.MaxPos)
		ub := uni.Bounds()
		for i := 1; i < g; i++ {
			bounds = append(bounds, offset+ub[i])
		}
		if s < len(shardTrees)-1 {
			// The next shard's documents start at offset' + 1, where
			// offset' adds this shard's 2n labels (its local dummy-root
			// labels 0 and maxPos-1 do not exist in the merged numbering).
			offset += tr.MaxPos - 2
			bounds = append(bounds, offset+1)
		} else {
			bounds = append(bounds, offset+tr.MaxPos)
		}
	}
	grid, err := histogram.NewGrid(bounds)
	if err != nil {
		t.Fatalf("aligned grid: %v", err)
	}
	return grid
}

// runShardEquivalence checks, for every split, that the sharded
// facade estimator and the aligned-grid monolithic core estimator
// agree on every query within 1e-9 relative.
func runShardEquivalence(t *testing.T, docs []*xmltree.Tree, splits map[string][]int, queries []string, g int) {
	t.Helper()
	mono := xmltree.Merge(docs...)
	monoCat := predicate.Spec{AllTags: true}.Build(mono)

	for name, split := range splits {
		t.Run(name, func(t *testing.T) {
			// Group the documents into shard trees per the split.
			var shardTrees []*xmltree.Tree
			next := 0
			for _, size := range split {
				shardTrees = append(shardTrees, xmltree.Merge(docs[next:next+size]...))
				next += size
			}
			if next != len(docs) {
				t.Fatalf("split %v does not cover %d docs", split, len(docs))
			}

			db := xmlest.FromTree(shardTrees[0])
			for _, tr := range shardTrees[1:] {
				if _, err := db.AppendTree(tr); err != nil {
					t.Fatal(err)
				}
			}
			db.AddAllTagPredicates()
			est, err := db.NewEstimator(xmlest.Options{GridSize: g})
			if err != nil {
				t.Fatal(err)
			}
			if est.ShardCount() != len(split) {
				t.Fatalf("ShardCount = %d, want %d", est.ShardCount(), len(split))
			}

			ref, err := core.NewEstimatorWithGrid(monoCat, alignedGrid(t, shardTrees, g), core.Options{GridSize: g})
			if err != nil {
				t.Fatal(err)
			}

			for _, q := range queries {
				got, err := est.Estimate(q)
				if err != nil {
					t.Fatalf("sharded %s: %v", q, err)
				}
				want, err := ref.EstimateTwig(pattern.MustParse(q))
				if err != nil {
					t.Fatalf("monolithic %s: %v", q, err)
				}
				relClose(t, fmt.Sprintf("%s shards=%d", q, len(split)), got.Estimate, want.Estimate)
				if want.Estimate <= 0 {
					t.Errorf("%s: degenerate reference estimate %v", q, want.Estimate)
				}
			}
		})
	}
}

var equivalenceSplits = map[string][]int{
	"shards=1": {7},
	"shards=2": {4, 3},
	"shards=7": {1, 1, 1, 1, 1, 1, 1},
}

// TestShardedMatchesMonolithicDBLP pins sharded estimates to the
// aligned-grid monolithic estimator on the Table 2 patterns (plus a
// branching twig) over seven DBLP-shaped documents.
func TestShardedMatchesMonolithicDBLP(t *testing.T) {
	docs := make([]*xmltree.Tree, 7)
	for i := range docs {
		docs[i] = datagen.GenerateDBLP(datagen.DBLPConfig{Seed: int64(100 + i), Scale: 0.01})
	}
	queries := make([]string, 0, len(table2Pairs)+1)
	for _, q := range table2Pairs {
		queries = append(queries, "//"+q.anc[4:]+"//"+q.desc[4:])
	}
	queries = append(queries, "//article[.//author]//cite")
	runShardEquivalence(t, docs, equivalenceSplits, queries, 10)
}

// TestShardedMatchesMonolithicHier does the same on the Table 4
// patterns over seven synthetic manager/department/employee documents.
func TestShardedMatchesMonolithicHier(t *testing.T) {
	docs := make([]*xmltree.Tree, 7)
	for i := range docs {
		docs[i] = datagen.GenerateHier(datagen.HierConfig{Seed: int64(300 + i), Scale: 0.4})
	}
	queries := make([]string, 0, len(table4Pairs))
	for _, q := range table4Pairs {
		queries = append(queries, "//"+q.anc[4:]+"//"+q.desc[4:])
	}
	runShardEquivalence(t, docs, equivalenceSplits, queries, 10)
}
