package core

import (
	"bytes"
	"testing"

	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// fig2Patterns are the twig shapes exercised against the Fig 1
// document in the repeated-estimate and determinism tests.
var fig2Patterns = []string{
	"//faculty//TA",
	"//department//faculty",
	"//faculty[.//TA][.//RA]",
	"//department//faculty[.//TA]//RA",
	"//department/faculty",
}

// TestParallelBuildDeterministic asserts that the worker-pool build
// produces a bit-identical estimator for every worker count: the
// serialized summaries match, and so do all estimates (the issue's
// "same estimates regardless of GOMAXPROCS" requirement — worker count
// is what GOMAXPROCS feeds).
func TestParallelBuildDeterministic(t *testing.T) {
	tr := xmltree.Fig1Document()
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	cat.Add(predicate.True{})

	build := func(workers int) *Estimator {
		t.Helper()
		est, err := NewEstimator(cat, Options{GridSize: 4, LevelHistograms: true, BuildWorkers: workers})
		if err != nil {
			t.Fatalf("NewEstimator(workers=%d): %v", workers, err)
		}
		return est
	}
	ref := build(1)
	refBlob, err := ref.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, workers := range []int{2, 4, 16} {
		est := build(workers)
		blob, err := est.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal workers=%d: %v", workers, err)
		}
		if !bytes.Equal(refBlob, blob) {
			t.Fatalf("workers=%d: serialized summary differs from sequential build", workers)
		}
		for _, src := range fig2Patterns {
			p := pattern.MustParse(src)
			want, err := ref.EstimateTwig(p)
			if err != nil {
				t.Fatalf("ref estimate %s: %v", src, err)
			}
			got, err := est.EstimateTwig(p)
			if err != nil {
				t.Fatalf("workers=%d estimate %s: %v", workers, src, err)
			}
			if got.Estimate != want.Estimate {
				t.Fatalf("workers=%d %s: estimate %v, want %v", workers, src, got.Estimate, want.Estimate)
			}
		}
	}
}

// TestPHJoinSparseMatchesDense cross-checks the sparse cached-sum
// pH-Join against the literal Fig 9 transcription on every predicate
// pair of the Fig 1 document across grid sizes.
func TestPHJoinSparseMatchesDense(t *testing.T) {
	tr := xmltree.Fig1Document()
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	for _, g := range []int{2, 3, 5, 8} {
		est, err := NewEstimator(cat, Options{GridSize: g})
		if err != nil {
			t.Fatalf("NewEstimator: %v", err)
		}
		for _, a := range cat.Names() {
			for _, b := range cat.Names() {
				ha, _ := est.Histogram(a)
				hb, _ := est.Histogram(b)
				sparse, err := PHJoin(ha, hb)
				if err != nil {
					t.Fatalf("PHJoin: %v", err)
				}
				dense, err := PHJoinDense(ha, hb)
				if err != nil {
					t.Fatalf("PHJoinDense: %v", err)
				}
				tol := 1e-9 * (1 + dense)
				if diff := sparse - dense; diff > tol || diff < -tol {
					t.Fatalf("g=%d %s//%s: sparse %v, dense %v", g, a, b, sparse, dense)
				}
			}
		}
	}
}

// TestRepeatedEstimateMatchesFreshEstimator asserts that estimates are
// pure functions of the histograms: a repeated estimate and a fresh
// estimator's estimate agree exactly with the first.
func TestRepeatedEstimateMatchesFreshEstimator(t *testing.T) {
	_, _, warm := fig1Estimator(t, 4)
	for _, src := range fig2Patterns {
		p := pattern.MustParse(src)
		first, err := warm.EstimateTwig(p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		second, err := warm.EstimateTwig(p)
		if err != nil {
			t.Fatalf("%s (repeated): %v", src, err)
		}
		if first.Estimate != second.Estimate {
			t.Fatalf("%s: repeated estimate %v != first %v", src, second.Estimate, first.Estimate)
		}
		_, _, cold := fig1Estimator(t, 4)
		fresh, err := cold.EstimateTwig(p)
		if err != nil {
			t.Fatalf("%s (fresh): %v", src, err)
		}
		if fresh.Estimate != first.Estimate {
			t.Fatalf("%s: fresh estimator %v != first %v", src, fresh.Estimate, first.Estimate)
		}
	}
}

// TestPreparedQuery exercises the compiled-query path: equality with
// EstimateTwig, stable repeated results, and eager resolution errors.
func TestPreparedQuery(t *testing.T) {
	_, _, est := fig1Estimator(t, 4)
	for _, src := range fig2Patterns {
		p := pattern.MustParse(src)
		want, err := est.EstimateTwig(p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		pq, err := est.Prepare(pattern.MustParse(src))
		if err != nil {
			t.Fatalf("Prepare(%s): %v", src, err)
		}
		for call := 0; call < 3; call++ {
			got, err := pq.Estimate()
			if err != nil {
				t.Fatalf("%s call %d: %v", src, call, err)
			}
			if got.Estimate != want.Estimate {
				t.Fatalf("%s call %d: %v, want %v", src, call, got.Estimate, want.Estimate)
			}
			if got.UsedNoOverlap != want.UsedNoOverlap {
				t.Fatalf("%s call %d: UsedNoOverlap %v, want %v", src, call, got.UsedNoOverlap, want.UsedNoOverlap)
			}
		}
		sp, err := pq.EstimateSubPattern()
		if err != nil {
			t.Fatalf("%s: EstimateSubPattern: %v", src, err)
		}
		if sp.Total() != want.Estimate {
			t.Fatalf("%s: sub-pattern total %v, want %v", src, sp.Total(), want.Estimate)
		}
	}
	if _, err := est.Prepare(pattern.MustParse("//nosuchtag//TA")); err == nil {
		t.Fatalf("Prepare with unknown predicate: want error")
	}
}

func TestNewEstimatorRejectsOversizedGrid(t *testing.T) {
	tr := xmltree.Fig1Document()
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	if _, err := NewEstimator(cat, Options{GridSize: 1<<16 + 1}); err == nil {
		t.Fatalf("GridSize beyond uint16 bucket range: want error")
	}
}

// TestEstimateSubPatternThenExtendedTwigMatchesCold: after a caller
// takes a sub-pattern (the planner does), a twig extending it estimates
// as on a cold estimator.
func TestEstimateSubPatternThenExtendedTwigMatchesCold(t *testing.T) {
	_, _, est := fig1Estimator(t, 4)
	p := pattern.MustParse("//faculty//TA")
	sp, err := est.EstimateSubPattern(p)
	if err != nil {
		t.Fatalf("EstimateSubPattern: %v", err)
	}
	res, err := est.EstimateTwig(p)
	if err != nil {
		t.Fatalf("EstimateTwig: %v", err)
	}
	if res.Estimate != sp.Total() {
		t.Fatalf("estimate %v, sub-pattern total %v", res.Estimate, sp.Total())
	}
	bigger := pattern.MustParse("//department//faculty//TA")
	_, _, cold := fig1Estimator(t, 4)
	wantBig, err := cold.EstimateTwig(bigger)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	gotBig, err := est.EstimateTwig(bigger)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if gotBig.Estimate != wantBig.Estimate {
		t.Fatalf("extended twig after EstimateSubPattern = %v, want %v", gotBig.Estimate, wantBig.Estimate)
	}
}
