package shard

import (
	"sync"
	"time"

	"xmlest/internal/core"
	"xmlest/internal/pattern"
)

// Prepared is a twig pattern compiled against one shard set: one
// core.PreparedQuery per shard that can resolve every predicate of the
// pattern. It is immutable and safe for concurrent use. Its estimate
// is the sum of the per-shard values in shard order, so it is a pure
// function of the set — bit-identical for every worker count and on
// every node that serves the same shards. The sum is computed once per
// binding; later estimates return it without touching the shards.
type Prepared struct {
	set   *Set
	p     *pattern.Pattern
	key   core.Options // summaryKey of the options the queries were built for
	names []string     // the pattern's distinct predicate names

	// queries are the per-shard queries still to fold, in shard order.
	// The shards before them are already folded into fromEst and
	// fromNoOv: they are carried over from an evaluated binding to an
	// earlier set of which this set is an extension. The fold resumes
	// after them in shard order, so it gives the same bits as folding
	// from zero.
	queries  []*core.PreparedQuery
	fromEst  float64
	fromNoOv bool

	once sync.Once
	est  float64
	noOv bool
	err  error
}

// Prepare compiles the pattern against every shard summary for opts.
// Shards lacking one of the pattern's predicates are skipped (they
// contribute zero); a predicate unknown to every shard is an error.
func (s *Set) Prepare(p *pattern.Pattern, opts core.Options) (*Prepared, error) {
	sums, err := s.summaries(opts)
	if err != nil {
		return nil, err
	}
	names := patternNames(p)
	if err := checkResolvable(sums, names); err != nil {
		return nil, err
	}
	pr := &Prepared{set: s, p: p, key: summaryKey(opts), names: names, queries: make([]*core.PreparedQuery, 0, len(sums))}
	for _, est := range sums {
		if err := pr.add(est); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// add appends the query of a summary that resolves every name.
func (pr *Prepared) add(est *core.Estimator) error {
	if !hasAll(est, pr.names) {
		return nil
	}
	q, err := est.Prepare(pr.p)
	if err != nil {
		return err
	}
	pr.queries = append(pr.queries, q)
	return nil
}

// PrepareSet is Set.Prepare for a set of this store, counted in
// xqest_prepare_fanout_total so a scrape shows how often compiled
// queries bind on demand rather than before publish (see Store.warm).
func (st *Store) PrepareSet(set *Set, p *pattern.Pattern, opts core.Options) (*Prepared, error) {
	return st.Rebind(nil, set, p, opts)
}

// Rebind is PrepareSet given prev, the pattern's binding to an earlier
// set of this store (nil if none). When set keeps prev's shards as its
// prefix — every append does — the new binding starts from prev's
// evaluated sum and compiles only the appended shards, so a rebind
// costs the new shards, not the whole set. Any other change
// (compaction, drop, replica snapshot) compiles the set afresh.
// Both ways the estimate is the same shard-order sum, bit for bit.
func (st *Store) Rebind(prev *Prepared, set *Set, p *pattern.Pattern, opts core.Options) (*Prepared, error) {
	st.prepFanout.Add(1)
	return set.rebind(prev, p, opts)
}

// rebind is Rebind, uncounted.
func (s *Set) rebind(prev *Prepared, p *pattern.Pattern, opts core.Options) (*Prepared, error) {
	key := summaryKey(opts)
	if prev == nil || prev.p != p || prev.key != key || !s.extends(prev.set) {
		return s.Prepare(p, opts)
	}
	prev.once.Do(prev.eval)
	if prev.err != nil {
		return s.Prepare(p, opts)
	}
	tail := s.shards[len(prev.set.shards):]
	pr := &Prepared{
		set: s, p: p, key: key, names: prev.names,
		queries: make([]*core.PreparedQuery, 0, len(tail)),
		fromEst: prev.est, fromNoOv: prev.noOv,
	}
	for _, sh := range tail {
		est, err := sh.Summary(opts)
		if err != nil {
			return nil, err
		}
		if err := pr.add(est); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// extends reports whether s holds every shard of prev, in prev's order,
// as its prefix: sets of one lineage form a chain of appends, so that
// is "same lineage and not shorter". A swap that starts a new lineage
// may still keep its predecessor's shards as a prefix (a snapshot
// installed over an empty set); extends then reports false, which
// costs that rebind its head start and nothing else.
func (s *Set) extends(prev *Set) bool {
	return prev != nil && s.lineage == prev.lineage && len(s.shards) >= len(prev.shards)
}

// Set returns the shard set the query was prepared against, so callers
// can detect staleness and rebind.
func (pr *Prepared) Set() *Set { return pr.set }

// Estimate returns the sum of the per-shard estimates of the compiled
// twig. The first call evaluates the binding (see eval); every later
// call returns the same sum.
func (pr *Prepared) Estimate() (core.Result, error) {
	start := time.Now()
	pr.once.Do(pr.eval)
	if pr.err != nil {
		return core.Result{}, pr.err
	}
	return core.Result{Estimate: pr.est, UsedNoOverlap: pr.noOv, Elapsed: time.Since(start)}, nil
}

// eval evaluates the queries, in parallel across a GOMAXPROCS worker
// pool when that can pay for the goroutine overhead — the expensive
// part of a cold bind — and then folds their values in shard order
// onto the carried-over sum. Errors are ignored by the parallel pass
// and surface deterministically from the serial fold.
func (pr *Prepared) eval() {
	forEachParallel(len(pr.queries), func(i int) {
		_, _, _ = pr.queries[i].Value()
	})
	est, noOv := pr.fromEst, pr.fromNoOv
	for _, q := range pr.queries {
		v, n, err := q.Value()
		if err != nil {
			pr.err = err
			return
		}
		est += v
		noOv = noOv || n
	}
	pr.est, pr.noOv = est, noOv
}
