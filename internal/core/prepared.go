package core

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"xmlest/internal/cache"
	"xmlest/internal/pattern"
)

// Compiled twig queries. A PreparedQuery binds a parsed pattern to an
// estimator with every predicate reference resolved up front, and
// caches the folded root sub-pattern after the first evaluation:
// estimates are pure functions of the estimator's immutable histograms,
// so a hot query answers subsequent calls from the cached fold. Distinct
// queries sharing sub-twigs also benefit through the estimator-level
// join cache below. See DESIGN.md, "Summary pipeline & performance".

// joinCacheSize bounds the estimator-level sub-pattern join cache. Each
// entry holds a folded SubPattern: two sparse histograms and a CSR
// coverage histogram, O(nnz) each, so the bound keeps the cache small
// at any grid size.
const joinCacheSize = 256

// cachedJoin is a folded sub-pattern with the no-overlap usage flag.
type cachedJoin struct {
	sp   SubPattern
	noOv bool
}

// joinLRU memoizes folded sub-patterns by canonical sub-twig signature.
type joinLRU = cache.LRU[string, cachedJoin]

// joins returns the lazily-initialized join cache (estimators built by
// UnmarshalEstimator do not pass through NewEstimator).
func (e *Estimator) joins() *joinLRU {
	e.cacheOnce.Do(func() {
		e.joinCache = cache.New[string, cachedJoin](joinCacheSize)
	})
	return e.joinCache
}

// subtreeSig renders the canonical signature of the sub-twig rooted at
// q: the anchor predicate name followed by each child edge's axis and
// the child's signature, in syntax order. Predicate names are
// length-prefixed because catalog aliases may contain any byte —
// including the structural markers — so the encoding stays injective
// on (predicate names, axes, shape) and equal signatures fold to
// identical sub-patterns.
func subtreeSig(q *pattern.Node) string {
	var b strings.Builder
	b.Grow(64)
	writeSig(&b, q)
	return b.String()
}

func writeSig(b *strings.Builder, q *pattern.Node) {
	name := q.PredName()
	b.WriteString(strconv.Itoa(len(name)))
	b.WriteByte(':')
	b.WriteString(name)
	for _, qc := range q.Children {
		b.WriteByte('[')
		b.WriteString(qc.Axis.String())
		writeSig(b, qc)
		b.WriteByte(']')
	}
}

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
	res  cachedJoin
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

// PrepareShared is Prepare memoized by pattern identity: repeated
// calls with the same *pattern.Pattern return one shared compiled
// query (and therefore one cached fold). Sharded serving rebinds every
// compiled query whenever the shard set changes — under ingest that is
// hundreds of rebinds per second across hundreds of per-shard
// summaries, and this cache turns each per-shard rebind into a single
// lock-free map load instead of re-resolving predicates and re-probing
// the sub-twig join cache. Entries live for the estimator's lifetime;
// callers (the facade's bounded compiled-query cache) bound the
// distinct pattern objects in play.
func (e *Estimator) PrepareShared(p *pattern.Pattern) (*PreparedQuery, error) {
	if q, ok := e.prepared.Load(p); ok {
		return q.(*PreparedQuery), nil
	}
	q, err := e.Prepare(p)
	if err != nil {
		return nil, err
	}
	if actual, loaded := e.prepared.LoadOrStore(p, q); loaded {
		return actual.(*PreparedQuery), nil
	}
	// Crude size bound: a client cycling unboundedly many distinct
	// pattern objects must not grow a long-lived shard summary without
	// limit, so past the cap the cache resets wholesale (folds rebuild
	// from the join cache, so a reset costs latency, not correctness).
	// The count is approximate under races; that only varies the reset
	// point by a few entries.
	if e.preparedN.Add(1) > preparedCacheLimit {
		e.prepared.Range(func(k, _ any) bool {
			e.prepared.Delete(k)
			return true
		})
		e.preparedN.Store(1)
		e.prepared.Store(p, q)
	}
	return q, nil
}

// preparedCacheLimit bounds the per-estimator shared compiled-query
// cache (see PrepareShared).
const preparedCacheLimit = 1024

// Pattern returns the compiled pattern.
func (pq *PreparedQuery) Pattern() *pattern.Pattern { return pq.p }

// Estimate returns the twig's estimated answer size. The first call
// folds the pattern (possibly hitting the estimator's sub-twig join
// cache); later calls reuse the folded result.
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
		pq.res, pq.err = cachedJoin{sp: sp, noOv: noOv}, err
	})
	if pq.err != nil {
		return 0, false, pq.err
	}
	return pq.res.sp.Total(), pq.res.noOv, nil
}

// EstimateSubPattern returns the folded root sub-pattern (estimate,
// participation, coverage), for optimizers needing intermediate
// results. The returned histograms are shared with the cache and must
// not be mutated.
func (pq *PreparedQuery) EstimateSubPattern() (SubPattern, error) {
	if _, err := pq.Estimate(); err != nil {
		return SubPattern{}, err
	}
	return pq.res.sp, nil
}
