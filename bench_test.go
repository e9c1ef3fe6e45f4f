// Benchmarks regenerating the paper's evaluation. One benchmark per
// table and figure (the quantity timed is the estimation work the
// paper's "Est Time" columns report), plus micro-benchmarks of the
// underlying machinery (histogram construction, the pH-Join inner loop
// across grid sizes, exact counting as the comparator).
//
// Run: go test -bench=. -benchmem
package xmlest_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"xmlest"
	"xmlest/internal/accuracy"
	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/exec"
	"xmlest/internal/experiments"
	"xmlest/internal/histogram"
	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/planner"
	"xmlest/internal/stream"
	"xmlest/internal/xmltree"
)

// BenchmarkRunningExample times the faculty//TA walk-through (Fig 1,
// 2×2 grids): both estimation algorithms on the toy document.
func BenchmarkRunningExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CatalogBuild times building the full DBLP predicate
// catalog (the per-predicate node lists Table 1 reports on).
func BenchmarkTable1CatalogBuild(b *testing.B) {
	b.ReportAllocs()
	tree := experiments.DBLP().Tree
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := datagen.DBLPCatalog(tree)
		if cat.Len() == 0 {
			b.Fatal("empty catalog")
		}
	}
}

// BenchmarkTable2 times each Table 2 query's estimation (primitive and
// no-overlap variants), on the paper's 10×10 grids.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	queries := []struct{ anc, desc string }{
		{"tag=article", "tag=author"},
		{"tag=article", "tag=cdrom"},
		{"tag=article", "tag=cite"},
		{"tag=book", "tag=cdrom"},
	}
	for _, q := range queries {
		b.Run(fmt.Sprintf("%s_%s/overlap", q.anc[4:], q.desc[4:]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimator.EstimatePairPrimitive(q.anc, q.desc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s_%s/nooverlap", q.anc[4:], q.desc[4:]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimator.EstimatePair(q.anc, q.desc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4 times each Table 4 query's estimation on the
// synthetic manager/department/employee dataset.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	queries := []struct{ anc, desc string }{
		{"tag=manager", "tag=department"},
		{"tag=manager", "tag=employee"},
		{"tag=manager", "tag=email"},
		{"tag=department", "tag=employee"},
		{"tag=department", "tag=email"},
		{"tag=employee", "tag=name"},
		{"tag=employee", "tag=email"},
	}
	for _, q := range queries {
		b.Run(q.anc[4:]+"_"+q.desc[4:], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimator.EstimatePair(q.anc, q.desc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11GridSweep times one full Fig 11 sweep: for every grid
// size, histogram construction plus the department//email primitive
// estimate.
func BenchmarkFig11GridSweep(b *testing.B) {
	b.ReportAllocs()
	experiments.Hier() // build outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig11(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig12GridSweep times one full Fig 12 sweep: position and
// coverage histogram construction plus the article//cdrom no-overlap
// estimate per grid size.
func BenchmarkFig12GridSweep(b *testing.B) {
	b.ReportAllocs()
	experiments.DBLP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig12(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkTheorem1Sweep times the non-zero-cell scaling measurement.
func BenchmarkTheorem1Sweep(b *testing.B) {
	b.ReportAllocs()
	experiments.DBLP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Theorem1(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkTheorem2Sweep times the partial-coverage scaling measurement.
func BenchmarkTheorem2Sweep(b *testing.B) {
	b.ReportAllocs()
	experiments.DBLP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Theorem2(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkPHJoin isolates the three-pass pH-Join (Fig 9) across grid
// sizes: the paper's O(g) estimation-time claim.
func BenchmarkPHJoin(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	anc := s.Catalog.MustGet("tag=article").Nodes
	desc := s.Catalog.MustGet("tag=author").Nodes
	for _, g := range []int{10, 20, 50, 100} {
		grid := histogram.MustUniformGrid(g, s.Tree.MaxPos)
		ha := histogram.BuildPosition(s.Tree, anc, grid)
		hb := histogram.BuildPosition(s.Tree, desc, grid)
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PHJoin(ha, hb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistogramBuild times constructing the position histogram of
// the largest DBLP predicate (author, 41,501 nodes) at 10×10.
func BenchmarkHistogramBuild(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	nodes := s.Catalog.MustGet("tag=author").Nodes
	grid := histogram.MustUniformGrid(10, s.Tree.MaxPos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := histogram.BuildPosition(s.Tree, nodes, grid)
		if h.Total() == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkCoverageBuild times constructing the coverage histogram for
// the article predicate (a full sweep over all ~150k tree nodes).
func BenchmarkCoverageBuild(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	nodes := s.Catalog.MustGet("tag=article").Nodes
	grid := histogram.MustUniformGrid(10, s.Tree.MaxPos)
	trueHist := histogram.BuildTrue(s.Tree, grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := histogram.BuildCoverage(s.Tree, nodes, trueHist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactCount times the ground-truth structural join the
// estimates are validated against — the cost an estimator avoids.
func BenchmarkExactCount(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	anc := s.Catalog.MustGet("tag=article").Nodes
	desc := s.Catalog.MustGet("tag=author").Nodes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := match.CountPairs(s.Tree, anc, desc); n == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkTwigEstimate times a 4-node twig estimate (the Fig 2 shape)
// on the synthetic dataset.
func BenchmarkTwigEstimate(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	p := pattern.MustParse("//manager//department[.//employee]//email")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Estimator.EstimateTwig(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanEnumeration times join-order enumeration with
// intermediate estimates for a 4-node twig (the optimizer use case).
func BenchmarkPlanEnumeration(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	p := pattern.MustParse("//manager//department[.//employee]//email")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Enumerate(s.Estimator, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseAndNumber times XML parsing plus interval numbering on
// a mid-sized generated document — the ingest path.
func BenchmarkParseAndNumber(b *testing.B) {
	b.ReportAllocs()
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 1, Scale: 0.02})
	var buf []byte
	{
		var sb fmt.Stringer
		_ = sb
		w := &writerBuffer{}
		if err := xmltree.WriteXML(w, tree, tree.Root()); err != nil {
			b.Fatal(err)
		}
		buf = w.data
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// BenchmarkEstimatorBuild times full summary construction (all
// histograms and coverages) for the DBLP catalog at 10×10 — the
// build-time cost the paper amortizes across queries.
func BenchmarkEstimatorBuild(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEstimator(s.Catalog, core.Options{GridSize: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoverage isolates the cost of the coverage (Fig 10)
// algorithm against the primitive pH-Join on the same query — the
// space-time price of the better estimate.
func BenchmarkAblationCoverage(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	b.Run("primitive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Estimator.EstimatePairPrimitive("tag=article", "tag=cdrom"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coverage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Estimator.EstimatePair("tag=article", "tag=cdrom"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPrecomputedCoefficients compares the three-pass
// pH-Join against reusing pre-computed per-cell coefficients — the
// space-time trade-off the paper describes after Fig 9.
func BenchmarkAblationPrecomputedCoefficients(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	grid := histogram.MustUniformGrid(50, s.Tree.MaxPos)
	ha := histogram.BuildPosition(s.Tree, s.Catalog.MustGet("tag=article").Nodes, grid)
	hb := histogram.BuildPosition(s.Tree, s.Catalog.MustGet("tag=author").Nodes, grid)
	b.Run("three-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.PHJoin(ha, hb); err != nil {
				b.Fatal(err)
			}
		}
	})
	coef := core.AncestorCoefficients(hb)
	b.Run("precomputed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var total float64
			cc := coef.Cursor()
			for _, c := range ha.NonZeroCells() {
				total += c.Count * cc.Count(c.I, c.J)
			}
			if total == 0 {
				b.Fatal("zero estimate")
			}
		}
	})
}

// BenchmarkAblationGridShape compares estimator construction with
// uniform and equi-depth bucket boundaries.
func BenchmarkAblationGridShape(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	for name, opts := range map[string]core.Options{
		"uniform":   {GridSize: 10},
		"equidepth": {GridSize: 10, EquiDepth: true},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewEstimator(s.Catalog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParentChildEstimate times the level-histogram parent-child
// estimation extension.
func BenchmarkParentChildEstimate(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	est, err := core.NewEstimator(s.Catalog, core.Options{GridSize: 10, LevelHistograms: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimatePairParentChild("tag=department", "tag=employee"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStructuralJoin times the pair-producing stack-tree join (the
// execution-side comparator for the counting-only CountPairs), plus the
// parent-child pair counter on the same predicate lists (its sorted
// binary-search lookup replaced a per-call hash map).
func BenchmarkStructuralJoin(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	anc := s.Catalog.MustGet("tag=article").Nodes
	desc := s.Catalog.MustGet("tag=cdrom").Nodes
	b.Run("pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pairs := match.StructuralJoin(s.Tree, anc, desc); len(pairs) == 0 {
				b.Fatal("no pairs")
			}
		}
	})
	b.Run("countchild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := match.CountChildPairs(s.Tree, anc, desc); n == 0 {
				b.Fatal("no child pairs")
			}
		}
	})
}

// BenchmarkFindTwigMatches times bounded twig enumeration (first page
// of results), the workload of the online-feedback scenario.
func BenchmarkFindTwigMatches(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	resolve := func(name string) ([]xmltree.NodeID, error) {
		e, err := s.Catalog.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
	p := pattern.MustParse("//article[.//author]//cite")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := match.FindTwigMatches(s.Tree, p, resolve, 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkSummaryPersistence times summary serialization and loading.
func BenchmarkSummaryPersistence(b *testing.B) {
	b.ReportAllocs()
	s := experiments.DBLP()
	blob, err := s.Estimator.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Estimator.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.UnmarshalEstimator(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExecutePlan times executing the estimate-optimal plan for a
// 3-node twig on the synthetic dataset — the work the estimator's plan
// choice governs.
func BenchmarkExecutePlan(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	p := pattern.MustParse("//manager//department//employee")
	plans, err := planner.Enumerate(s.Estimator, p)
	if err != nil {
		b.Fatal(err)
	}
	resolve := func(name string) ([]xmltree.NodeID, error) {
		e, err := s.Catalog.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
	b.Run("best", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Execute(s.Tree, p, plans[0], resolve); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("worst", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Execute(s.Tree, p, plans[len(plans)-1], resolve); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkErrorProfileWorkload times evaluating the all-pairs workload
// (estimation only) on the synthetic dataset.
func BenchmarkErrorProfileWorkload(b *testing.B) {
	b.ReportAllocs()
	s := experiments.Hier()
	w := accuracy.PairWorkload(s.Catalog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range w {
			p := pattern.MustParse(q)
			if _, err := s.Estimator.EstimateTwig(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamIngest times the two-pass streaming histogram build on
// serialized XML — the bounded-memory ingest path.
func BenchmarkStreamIngest(b *testing.B) {
	b.ReportAllocs()
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 1, Scale: 0.02})
	var buf bytesBuffer
	if err := xmltree.WriteXML(&buf, tree, tree.Root()); err != nil {
		b.Fatal(err)
	}
	doc := buf.data
	src := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(doc)), nil
	}
	preds := []stream.EventPredicate{
		stream.TagPred{Tag: "article"},
		stream.TagPred{Tag: "author"},
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Build(src, 10, preds); err != nil {
			b.Fatal(err)
		}
	}
}

type bytesBuffer struct{ data []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// BenchmarkFacadeEstimate times the public-API path end to end on a
// hot query (the store's compiled-query memo absorbs the parse and the
// joins after the first call).
func BenchmarkFacadeEstimate(b *testing.B) {
	b.ReportAllocs()
	db := xmlest.FromCatalog(experiments.DBLP().Catalog)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate("//article//author"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledEstimate times a PreparedQuery on a hot path — the
// explicit Compile API, a handle on an entry of the store's memo.
func BenchmarkCompiledEstimate(b *testing.B) {
	b.ReportAllocs()
	db := xmlest.FromCatalog(experiments.DBLP().Catalog)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		b.Fatal(err)
	}
	pq, err := est.Compile("//article[.//author]//cite")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Estimate(); err != nil {
			b.Fatal(err)
		}
	}
}
