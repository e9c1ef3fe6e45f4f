package core

import (
	"sync"
	"time"

	"xmlest/internal/pattern"
)

// Compiled twig queries. A PreparedQuery binds a parsed pattern to an
// estimator with every predicate reference resolved up front, and
// caches the folded root sub-pattern after the first evaluation:
// estimates are pure functions of the estimator's immutable histograms,
// so a hot query answers subsequent calls from the cached fold. This is
// the only memo of a fold in the core: callers that re-fold the same
// sub-twig keep their own (the planner's per-enumeration memo). See
// DESIGN.md, "Compiled queries".

// PreparedQuery is a twig pattern compiled against one estimator:
// parsed once, predicate references resolved once, and the folded root
// sub-pattern cached across calls. A PreparedQuery is safe for
// concurrent use and stays valid for the estimator's lifetime: the
// histograms it folds are immutable after construction, and Synthesize
// (which must not run concurrently with estimation) only adds
// predicates, never replacing ones a compiled query references.
type PreparedQuery struct {
	e *Estimator
	p *pattern.Pattern

	once sync.Once
	sp   SubPattern // the folded root sub-pattern
	noOv bool
	err  error
}

// Prepare compiles a parsed pattern against the estimator. Every
// predicate reference is resolved eagerly, so an unknown name fails
// here rather than on first evaluation.
func (e *Estimator) Prepare(p *pattern.Pattern) (*PreparedQuery, error) {
	if err := e.resolve(p.Root); err != nil {
		return nil, err
	}
	return &PreparedQuery{e: e, p: p}, nil
}

// resolve checks that every predicate of the sub-twig at q has a
// histogram, in pre-order.
func (e *Estimator) resolve(q *pattern.Node) error {
	if _, err := e.Histogram(q.PredName()); err != nil {
		return err
	}
	for _, qc := range q.Children {
		if err := e.resolve(qc); err != nil {
			return err
		}
	}
	return nil
}

// Pattern returns the compiled pattern.
func (pq *PreparedQuery) Pattern() *pattern.Pattern { return pq.p }

// Estimate returns the twig's estimated answer size. The first call
// folds the pattern; later calls reuse the folded result.
func (pq *PreparedQuery) Estimate() (Result, error) {
	start := time.Now()
	est, noOv, err := pq.Value()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Estimate:      est,
		Elapsed:       time.Since(start),
		UsedNoOverlap: noOv,
	}, nil
}

// Value is the zero-overhead form of Estimate: the estimate and
// no-overlap flag without a Result or clock reads. Sharded serving sums
// one Value per shard when it binds a query to a shard set; after the
// first call it is a pair of atomic loads and a float read.
func (pq *PreparedQuery) Value() (est float64, usedNoOverlap bool, err error) {
	pq.once.Do(func() {
		sp, noOv, err := pq.e.buildSubPattern(pq.p.Root)
		if err == nil {
			err = sp.validate()
		}
		pq.sp, pq.noOv, pq.err = sp, noOv, err
	})
	if pq.err != nil {
		return 0, false, pq.err
	}
	return pq.sp.Total(), pq.noOv, nil
}

// EstimateSubPattern returns the folded root sub-pattern (estimate,
// participation, coverage), for optimizers needing intermediate
// results. Its histograms are immutable and shared with the compiled
// query.
func (pq *PreparedQuery) EstimateSubPattern() (SubPattern, error) {
	if _, err := pq.Estimate(); err != nil {
		return SubPattern{}, err
	}
	return pq.sp, nil
}
