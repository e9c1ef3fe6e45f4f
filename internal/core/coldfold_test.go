package core

import (
	"fmt"
	"testing"

	"xmlest/internal/datagen"
	"xmlest/internal/pattern"
	"xmlest/internal/xmltree"
)

// coldFoldTwig is a typical served twig: a branch, a parent-child edge
// and a content predicate, joined through the no-overlap article.
const coldFoldTwig = "//article[./title]//{conf}"

// articleShard builds a shard of small DBLP article documents, the kind
// an ingest append adds, with at least minPos positions so that a grid
// of minPos buckets is not clamped.
func articleShard(minPos int) *xmltree.Tree {
	for docs := 1; ; docs++ {
		b := xmltree.NewBuilder()
		for k := 0; k < docs; k++ {
			b.Begin("article")
			for i := 0; i <= k%4; i++ {
				b.Element("author", "Ada Lovelace")
			}
			b.Element("title", fmt.Sprintf("article %d", k))
			b.Element("year", fmt.Sprint(1980+k%20))
			for i := 0; i < k%4; i++ {
				b.Element("cite", []string{"conf/gray/1", "journals/codd/2"}[i%2])
			}
			b.Element("url", "db/journals/x.html")
			b.End()
		}
		if tr := b.Tree(); tr.MaxPos >= minPos {
			return tr
		}
	}
}

// freshEstimators builds n summaries of the shard on a g-bucket grid,
// none of which has folded a query yet.
func freshEstimators(tb testing.TB, tr *xmltree.Tree, g, n int) []*Estimator {
	tb.Helper()
	out := make([]*Estimator, n)
	for k := range out {
		est, err := NewEstimator(datagen.DBLPCatalog(tr), Options{GridSize: g})
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = est
	}
	return out
}

// coldFold compiles the twig against a fresh summary and folds it: the
// work the first estimate of a twig on a newly appended shard does.
func coldFold(tb testing.TB, est *Estimator, p *pattern.Pattern) {
	q, err := est.Prepare(p)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := q.Value(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkColdFold measures the first Value of a twig on a fresh
// shard, on the smallest article shard each grid fits (one document at
// g=10). Summaries are built in untimed batches.
func BenchmarkColdFold(b *testing.B) {
	p := pattern.MustParse(coldFoldTwig)
	for _, g := range []int{10, 30, 100} {
		tr := articleShard(g)
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			const batch = 32
			for i := 0; i < b.N; i += batch {
				b.StopTimer()
				ests := freshEstimators(b, tr, g, min(batch, b.N-i))
				b.StartTimer()
				for _, est := range ests {
					coldFold(b, est, p)
				}
			}
		})
	}
}

// maxColdFoldAllocs pins the allocations of a cold fold on a fresh
// one-document shard at g=10: the compiled query, and per join the two
// sparse result histograms and the propagated coverage histogram.
const maxColdFoldAllocs = 14

func TestColdFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	const runs = 50
	p := pattern.MustParse(coldFoldTwig)
	ests := freshEstimators(t, articleShard(10), 10, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		coldFold(t, ests[next], p)
		next++
	})
	if allocs > maxColdFoldAllocs {
		t.Fatalf("a cold fold allocates %v times, want at most %d", allocs, maxColdFoldAllocs)
	}
}
