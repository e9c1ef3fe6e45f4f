package core

import (
	"fmt"
	"testing"
)

// summaryShardPositions sizes the article shard BenchmarkShardSummary
// builds: a few appended documents, about 200 position labels, the same
// tree at every grid size.
const summaryShardPositions = 200

// BenchmarkShardSummary measures building one fresh summary of an
// appended article shard — catalog, position and coverage histograms —
// at each grid size: the per-append cost a finer default grid pays.
func BenchmarkShardSummary(b *testing.B) {
	tr := articleShard(summaryShardPositions)
	for _, g := range []int{10, 30, 100} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				freshEstimators(b, tr, g, 1)
			}
		})
	}
}
