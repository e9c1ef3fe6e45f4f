// Package shard decomposes the estimator into an LSM-flavored set of
// immutable per-shard summaries behind a versioned, copy-on-write
// serving snapshot.
//
// The paper's summary structure is built once over one mega-tree, so
// any document added or removed forces a full rebuild. But under the
// dummy root, documents are independent: a twig match never spans two
// documents, so both exact answer sizes and position-histogram
// estimates are additive across disjoint document subsets. That makes
// the sharded decomposition exact — a ShardSet that partitions the
// corpus answers every query as the sum of per-shard answers (see
// DESIGN.md, "Shard lifecycle", for the proof sketch and the grid
// alignment caveat).
//
// The lifecycle mirrors an LSM tree: Append lands new documents as a
// fresh shard (summarizing only those documents), Drop removes a shard,
// and Compact merges small shards into one off the serving path. Every
// mutation installs a new immutable Set via an atomic pointer swap;
// readers estimate against whatever Set they loaded and are never
// blocked.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/core"
	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// ErrSummaryOnly reports that exact counting reached a summary-only
// shard: the set can estimate the pattern but holds no documents to
// verify it against. Callers classify with errors.Is.
var ErrSummaryOnly = errors.New("shard: summary-only shard cannot be counted exactly")

// Shard is one immutable member of a shard set: a subset of the
// corpus's documents with its predicate catalog and lazily built
// summaries. Tree-backed shards can build a summary for any Options and
// participate in exact counting and compaction; summary-only shards
// (loaded blobs, checkpointed shards after recovery, snapshot-booted
// followers) carry one prebuilt estimator and no documents.
type Shard struct {
	id    uint64
	tree  *xmltree.Tree      // nil for summary-only shards
	cat   *predicate.Catalog // nil for summary-only shards
	docs  int
	nodes int
	// installedAt is the version of the first serving set containing
	// this shard, recorded under the store's write lock just before the
	// install — the visibility watermark appenders hand to clients.
	installedAt uint64
	// walSeq is the highest write-ahead-log sequence whose documents
	// the shard covers: its own record for an appended shard, the
	// maximum across the merge group for a compacted shard, and 0 for
	// shards that never went through a WAL (the bootstrap corpus). A
	// checkpoint containing the shard makes every record up to walSeq
	// replayable-free.
	walSeq uint64

	mu       sync.Mutex
	sums     map[core.Options]*core.Estimator // built summaries, keyed by options
	prebuilt *core.Estimator                  // the sole summary of a summary-only shard
}

// ID returns the shard's store-unique id.
func (s *Shard) ID() uint64 { return s.id }

// InstalledAt returns the version of the first serving snapshot that
// contained this shard (0 for shards of a loaded, store-less set).
func (s *Shard) InstalledAt() uint64 { return s.installedAt }

// WALSeq returns the highest write-ahead-log sequence the shard
// covers (0 for shards that never went through a WAL).
func (s *Shard) WALSeq() uint64 { return s.walSeq }

// Docs returns the number of documents the shard holds (0 when
// unknown, e.g. a summary-only shard loaded without metadata).
func (s *Shard) Docs() int { return s.docs }

// Nodes returns the shard's node count excluding its dummy root.
func (s *Shard) Nodes() int { return s.nodes }

// Tree returns the shard's document tree, or nil for summary-only
// shards.
func (s *Shard) Tree() *xmltree.Tree { return s.tree }

// Catalog returns the shard's materialized predicate catalog, or nil
// for summary-only shards.
func (s *Shard) Catalog() *predicate.Catalog { return s.cat }

// SummaryOnly reports whether the shard carries only a prebuilt
// summary (no documents): it estimates but cannot count exactly, serve
// new predicate registrations, or be compacted.
func (s *Shard) SummaryOnly() bool { return s.tree == nil }

// summaryKey normalizes options into a summary cache key: BuildWorkers
// cannot change the built summary (the parallel build is deterministic)
// and is zeroed, so semantically identical estimators share one build
// per shard.
func summaryKey(opts core.Options) core.Options {
	opts.BuildWorkers = 0
	return opts
}

// Summary returns the shard's estimator for the given options, building
// and caching it on first use. Summary-only shards return their
// prebuilt estimator for every options value. Concurrent callers are
// safe; at most one build runs per shard at a time.
//
// The grid size is clamped to the shard's own position space: shards
// hold arbitrarily small document batches, and a g×g grid needs g
// positions, so a corpus-sized g would otherwise reject (or poison)
// small appends that the monolithic rebuild absorbed without comment.
// A clamped shard simply has one bucket per position — the finest
// summary its documents admit.
func (s *Shard) Summary(opts core.Options) (*core.Estimator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prebuilt != nil {
		return s.prebuilt, nil
	}
	key := summaryKey(opts)
	if est, ok := s.sums[key]; ok {
		return est, nil
	}
	build := opts
	if build.GridSize > s.tree.MaxPos {
		build.GridSize = s.tree.MaxPos
	}
	est, err := core.NewEstimator(s.cat, build)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s.id, err)
	}
	if s.sums == nil {
		s.sums = make(map[core.Options]*core.Estimator)
	}
	s.sums[key] = est
	return est, nil
}

// invalidateSummaries drops cached summaries after the shard's catalog
// gained predicates (setup-time only; see Store registration methods).
func (s *Shard) invalidateSummaries() {
	s.mu.Lock()
	s.sums = nil
	s.mu.Unlock()
}

// Set is one immutable serving snapshot: a version number and the
// shards that were live when it was installed. Reads against a Set see
// a consistent corpus regardless of concurrent store mutations.
type Set struct {
	version uint64
	shards  []*Shard
	// lineage names the chain of appends the set belongs to: a set made
	// by appending to the serving set (or by raising its version) keeps
	// its lineage, and every other swap starts a new one. Two sets of
	// one lineage therefore differ only by appended shards (see extends).
	lineage uint64
}

// lineages numbers set lineages, unique across every store of the
// process.
var lineages atomic.Uint64

func newLineage() uint64 { return lineages.Add(1) }

// Version returns the snapshot's monotonically increasing version.
func (s *Set) Version() uint64 { return s.version }

// Len returns the number of shards.
func (s *Set) Len() int { return len(s.shards) }

// Shards returns the member shards in serving order. The returned
// slice is shared and must not be modified.
func (s *Set) Shards() []*Shard { return s.shards }

// TotalNodes sums the member shards' node counts.
func (s *Set) TotalNodes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.nodes
	}
	return n
}

// TotalDocs sums the member shards' document counts.
func (s *Set) TotalDocs() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.docs
	}
	return n
}

// summaries materializes every shard's estimator for opts, in shard
// order. Each shard memoizes its own summaries (Shard.Summary), so this
// is a walk over the shards, not a rebuild.
func (s *Set) summaries(opts core.Options) ([]*core.Estimator, error) {
	sums := make([]*core.Estimator, len(s.shards))
	for i, sh := range s.shards {
		est, err := sh.Summary(opts)
		if err != nil {
			return nil, err
		}
		sums[i] = est
	}
	return sums, nil
}

// EstimateTwig estimates the answer size of a twig pattern as the sum
// of per-shard estimates — exact composition, since no match spans two
// documents. A shard lacking one of the pattern's predicates
// contributes zero; a predicate unknown to every shard is an error. It
// compiles the pattern against the set and evaluates it once (see
// Prepare), so it sums in shard order and gives the same bits as a
// compiled query for every worker count.
func (s *Set) EstimateTwig(p *pattern.Pattern, opts core.Options) (core.Result, error) {
	start := time.Now()
	pr, err := s.Prepare(p, opts)
	if err != nil {
		return core.Result{}, err
	}
	out, err := pr.Estimate()
	if err != nil {
		return core.Result{}, err
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// EstimatePairPrimitive estimates anc//desc with the primitive
// algorithm on every shard that holds both predicates and sums. On wide
// sets the per-shard estimates fan out across a GOMAXPROCS worker pool;
// the sum runs in shard order, so the total is bit-identical for every
// worker count.
func (s *Set) EstimatePairPrimitive(ancName, descName string, opts core.Options) (core.Result, error) {
	start := time.Now()
	sums, err := s.summaries(opts)
	if err != nil {
		return core.Result{}, err
	}
	names := []string{ancName, descName}
	if err := checkResolvable(sums, names); err != nil {
		return core.Result{}, err
	}
	able := slices.DeleteFunc(sums, func(est *core.Estimator) bool { return !hasAll(est, names) })
	results := make([]core.Result, len(able))
	errs := make([]error, len(able))
	forEachParallel(len(able), func(i int) {
		results[i], errs[i] = able[i].EstimatePairPrimitive(ancName, descName)
	})
	out := core.Result{}
	for i := range able {
		if errs[i] != nil {
			return core.Result{}, errs[i]
		}
		out.Estimate += results[i].Estimate
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// forEachParallel runs fn(0..n-1) across a GOMAXPROCS worker pool, or
// serially when the pool cannot pay for its goroutine overhead (few
// items or a single worker). Callers own any ordering concerns: fn
// writes into indexed slots and reductions run afterwards in index
// order, so results never depend on the worker count.
func forEachParallel(n int, fn func(i int)) {
	const minParallel = 4
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Count computes the exact answer size of a twig pattern as the sum of
// per-shard exact counts. It requires every shard to be tree-backed.
// Like estimation, a shard lacking one of the pattern's predicates
// contributes zero matches, but a predicate unknown to every shard is
// an error (the monolithic "unknown predicate" behaviour).
func (s *Set) Count(p *pattern.Pattern) (float64, error) {
	return s.CountBudget(p, time.Time{})
}

// CountBudget is Count with a wall-clock budget, built for shadow
// execution of sampled live queries: the deadline is checked before
// each shard's count, so a count overshoots its budget by at most one
// shard's structural join, and a blown budget aborts with an error
// wrapping context.DeadlineExceeded. The zero deadline disables the
// check. A summary-only shard aborts with ErrSummaryOnly (the pattern
// is unverifiable, not wrong). Summary-only shards are checked before
// predicate resolution: they carry no catalog, so resolving against
// them would misreport the problem as a missing predicate.
func (s *Set) CountBudget(p *pattern.Pattern, deadline time.Time) (float64, error) {
	for _, sh := range s.shards {
		if sh.SummaryOnly() {
			return 0, fmt.Errorf("shard: exact counting requires document-backed shards (shard %d is summary-only): %w", sh.id, ErrSummaryOnly)
		}
	}
	names := patternNames(p)
	for _, name := range names {
		found := false
		for _, sh := range s.shards {
			if sh.cat != nil && sh.cat.Has(name) {
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("shard: no catalog entry for predicate %q in any shard", name)
		}
	}
	var total float64
shards:
	for i, sh := range s.shards {
		for _, name := range names {
			if !sh.cat.Has(name) {
				continue shards
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, fmt.Errorf("shard: count budget exhausted after %d of %d shards: %w", i, len(s.shards), context.DeadlineExceeded)
		}
		n, err := match.CountTwig(sh.tree, p, func(name string) ([]xmltree.NodeID, error) {
			e, err := sh.cat.Get(name)
			if err != nil {
				return nil, err
			}
			return e.Nodes, nil
		})
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// StorageBytes sums the compact-encoding size of every shard's summary
// for the given options.
func (s *Set) StorageBytes(opts core.Options) (int, error) {
	sums, err := s.summaries(opts)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, est := range sums {
		total += est.StorageBytes()
	}
	return total, nil
}

// Summaries returns the per-shard summaries for opts, packaged for the
// XQS2 container.
func (s *Set) Summaries(opts core.Options) ([]core.ShardSummary, error) {
	sums, err := s.summaries(opts)
	if err != nil {
		return nil, err
	}
	out := make([]core.ShardSummary, len(s.shards))
	for i, sh := range s.shards {
		out[i] = core.ShardSummary{ID: sh.id, Docs: sh.docs, Nodes: sh.nodes, Est: sums[i]}
	}
	return out, nil
}

// patternNames collects the distinct predicate names of a pattern.
func patternNames(p *pattern.Pattern) []string {
	nodes := p.Nodes()
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if name := n.PredName(); !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// checkResolvable errors when some predicate name is unknown to every
// summary — the sharded analogue of the monolithic "no histogram for
// predicate" error.
func checkResolvable(sums []*core.Estimator, names []string) error {
	for _, name := range names {
		found := false
		for _, est := range sums {
			if est.HasPredicate(name) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("shard: no histogram for predicate %q in any shard", name)
		}
	}
	return nil
}

// hasAll reports whether one summary resolves every name.
func hasAll(est *core.Estimator, names []string) bool {
	for _, name := range names {
		if !est.HasPredicate(name) {
			return false
		}
	}
	return true
}

// countDocs counts a tree's documents (children of the dummy root).
func countDocs(t *xmltree.Tree) int {
	n := 0
	for c := t.Nodes[0].FirstChild; c != xmltree.InvalidNode; c = t.Nodes[c].NextSibling {
		n++
	}
	return n
}
