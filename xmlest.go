// Package xmlest estimates answer sizes for XML twig queries using
// position histograms, reproducing "Estimating Answer Sizes for XML
// Queries" (Wu, Patel, Jagadish — EDBT 2002).
//
// A Database wraps an XML document collection with interval-numbered
// nodes and a catalog of predicates. An Estimator summarizes the
// catalog into position histograms (and coverage histograms for
// no-overlap predicates) and answers answer-size queries for twig
// patterns without touching the data again:
//
//	db, _ := xmlest.Open(strings.NewReader(doc))
//	db.AddAllTagPredicates()
//	est, _ := db.NewEstimator(xmlest.Options{GridSize: 10})
//	res, _ := est.Estimate("//department//faculty[.//TA][.//RA]")
//	fmt.Println(res.Estimate, res.Elapsed)
//
// Internally the collection is sharded: each batch of appended
// documents is summarized as its own immutable shard, and estimates
// are the sums of per-shard estimates — an exact decomposition, since
// a twig match never spans two documents under the dummy root.
// Database.Append lands new documents by summarizing only those
// documents, concurrent estimation serves from an atomically-swapped
// snapshot, and Database.Compact merges small shards off the serving
// path. A database opened once and never appended to behaves exactly
// like the paper's single mega-tree summary.
//
// Exact answer sizes (ground truth) are available through
// Database.Count, and the naive and schema-only baselines of the
// paper's evaluation through Naive and SchemaUpperBound.
package xmlest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"xmlest/internal/accuracy"
	"xmlest/internal/core"
	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/shard"
	"xmlest/internal/stream"
	"xmlest/internal/xmltree"
)

// Re-exported predicate constructors. Predicates are registered on a
// Database before building an Estimator.
type (
	// Predicate is a boolean node predicate.
	Predicate = predicate.Predicate
	// Tag matches element tags ("element-tag predicates").
	Tag = predicate.Tag
	// ContentEquals matches exact text content.
	ContentEquals = predicate.ContentEquals
	// ContentPrefix matches a text-content prefix.
	ContentPrefix = predicate.ContentPrefix
	// ContentSuffix matches a text-content suffix.
	ContentSuffix = predicate.ContentSuffix
	// ContentContains matches a text-content substring.
	ContentContains = predicate.ContentContains
	// NumericRange matches numeric text content within [Lo, Hi].
	NumericRange = predicate.NumericRange
	// TagContent matches tag and exact content together.
	TagContent = predicate.TagContent
	// And, Or, Not compose predicates.
	And = predicate.And
	Or  = predicate.Or
	Not = predicate.Not
	// Named aliases a predicate under a display name.
	Named = predicate.Named
	// True matches every node.
	True = predicate.True
)

// Options configures estimator construction. See core.Options.
type Options = core.Options

// DefaultOptions mirror the paper's experimental setup (grid size 10).
var DefaultOptions = core.DefaultOptions

// Result is one estimation outcome.
type Result = core.Result

// CompactionPolicy tunes Database.Compact's size-tiered shard merging.
// See shard.CompactionPolicy.
type CompactionPolicy = shard.CompactionPolicy

// ShardInfo describes one live shard for introspection.
type ShardInfo struct {
	// ID is the shard's store-unique id (usable with DropShard).
	ID uint64
	// Docs and Nodes are the shard's document and node counts.
	Docs  int
	Nodes int
	// SummaryOnly marks shards that carry only a prebuilt summary (for
	// example, loaded or streamed): they estimate but hold no documents.
	SummaryOnly bool
	// Version is the first serving snapshot that contained the shard —
	// the visibility watermark: any estimate served at Version or later
	// reflects the shard's documents. Zero for shards of a loaded,
	// store-less set.
	Version uint64
	// WALSeq is the shard's write-ahead-log watermark on a durable
	// database: the highest logged batch it covers (its own record for
	// an appended shard, the group maximum for a compacted one). Zero
	// on non-durable databases and for bootstrap shards.
	WALSeq uint64
}

// Database is an XML document collection prepared for estimation: a
// set of interval-numbered document shards sharing one predicate
// vocabulary. A single Open (or FromTree/FromCatalog) produces one
// shard — the paper's mega-tree; Append grows the collection one shard
// per call.
//
// Exact-counting paths (Count, Find, Participation, the baselines)
// consult a merged mega-tree view, materialized lazily per version
// when the database holds more than one shard.
type Database struct {
	store *shard.Store

	// durable, when non-nil, is the write-ahead-log + checkpoint layer
	// behind the store (see OpenDurable): mutations route through it so
	// acknowledged appends survive crashes.
	durable *shard.DurableStore

	// Lazily merged mega-tree view, cached per store version. The
	// single-shard case bypasses the cache and serves the shard's own
	// tree and (live) catalog, preserving the seed's exact behaviour.
	mergedMu  sync.Mutex
	mergedVer uint64
	merged    *xmltree.Tree
	mergedCat *predicate.Catalog
}

// Open parses one or more XML documents into a Database holding one
// shard. Multiple documents are merged under a dummy root, as the paper
// prescribes.
func Open(readers ...io.Reader) (*Database, error) {
	tree, err := xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
	if err != nil {
		return nil, err
	}
	return FromTree(tree), nil
}

// OpenFiles parses the named XML files into a Database.
func OpenFiles(paths ...string) (*Database, error) {
	readers := make([]io.Reader, 0, len(paths))
	closers := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range closers {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		closers = append(closers, f)
		readers = append(readers, f)
	}
	return Open(readers...)
}

// FromTree wraps an already-built tree (for example, from the synthetic
// dataset generators) as the database's first shard.
func FromTree(tree *xmltree.Tree) *Database {
	return FromCatalog(predicate.NewCatalog(tree))
}

// FromCatalog wraps a tree with an existing predicate catalog as the
// database's first shard. The catalog's predicates become the recipe
// future appended shards are materialized with.
func FromCatalog(cat *predicate.Catalog) *Database {
	st := shard.NewStore(predicate.SpecFromCatalog(cat))
	if _, err := st.AppendCatalog(cat); err != nil {
		// Appending a catalog-backed shard cannot fail: the tree is
		// already built and no summaries are active yet.
		panic("xmlest: " + err.Error())
	}
	return &Database{store: st}
}

// Append parses one or more XML documents and lands them as a new
// shard: only the new documents are scanned and summarized, so the
// cost is independent of the existing corpus size. Estimators created
// by NewEstimator see the new shard on their next call; snapshots
// taken before the append do not. It returns the new shard's info.
//
// Append is safe to call concurrently with estimation; concurrent
// Appends serialize.
func (db *Database) Append(readers ...io.Reader) (ShardInfo, error) {
	if db.durable != nil {
		// The durable path needs the raw bytes: they are what the WAL
		// logs and what recovery replays.
		docs, err := slurp(readers)
		if err != nil {
			return ShardInfo{}, err
		}
		return db.appendDurable(docs)
	}
	tree, err := xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
	if err != nil {
		return ShardInfo{}, err
	}
	return db.AppendTree(tree)
}

// AppendTree lands an already-built tree as a new shard (see Append).
// On a durable database the tree's documents are re-serialized as XML
// for the write-ahead log; trees from Parse or the generators round-
// trip exactly (parsing trims inter-element whitespace).
func (db *Database) AppendTree(tree *xmltree.Tree) (ShardInfo, error) {
	if db.durable != nil {
		docs, err := serializeDocs(tree)
		if err != nil {
			return ShardInfo{}, err
		}
		return db.appendDurable(docs)
	}
	sh, err := db.store.AppendTree(tree)
	if err != nil {
		return ShardInfo{}, err
	}
	return shardInfo(sh), nil
}

// AppendStream lands one XML document from a re-openable byte stream
// as a summary-only shard, never buffering the document in memory: the
// stream is scanned twice (pass one sizes the position space and
// discovers the tag vocabulary, pass two feeds the histograms) with
// memory bounded by document depth plus the summary itself — the
// ingest path for documents that exceed memory. gridSize 0 uses the
// data directory's pinned grid (durable) or DefaultOptions.GridSize.
//
// The database's predicate vocabulary must be all-tags with no
// registered tree predicates: a byte stream can answer "which tag is
// this element" but not predicates that need the materialized tree.
//
// On a durable database the shard is made durable by an immediate
// checkpoint rather than a WAL record — raw bytes were never held, so
// there is nothing to replay — and the ack returns only after the
// checkpoint commits.
func (db *Database) AppendStream(open func() (io.ReadCloser, error), gridSize int) (ShardInfo, error) {
	if open == nil {
		return ShardInfo{}, fmt.Errorf("xmlest: AppendStream needs a source")
	}
	spec := db.store.Spec()
	if !spec.AllTags || len(spec.Preds) > 0 {
		return ShardInfo{}, fmt.Errorf(
			"xmlest: streaming append requires the all-tags predicate vocabulary (tree-based predicates cannot be evaluated on a byte stream)")
	}
	if db.durable != nil {
		pinned := db.durable.GridSize()
		if gridSize == 0 {
			gridSize = pinned
		}
		if gridSize != pinned {
			return ShardInfo{}, fmt.Errorf(
				"xmlest: streaming append grid %d differs from the data directory's pinned grid %d", gridSize, pinned)
		}
	} else if gridSize == 0 {
		gridSize = DefaultOptions.GridSize
	}
	est, res, err := stream.BuildAllTagsEstimator(stream.Source(open), gridSize)
	if err != nil {
		return ShardInfo{}, err
	}
	if res.Nodes == 0 {
		return ShardInfo{}, fmt.Errorf("xmlest: refusing to append an empty tree")
	}
	var sh *shard.Shard
	if db.durable != nil {
		sh, err = db.durable.AppendSummary(est, 1, res.Nodes)
	} else {
		sh, err = db.store.AppendSummary(est, 1, res.Nodes)
	}
	if err != nil {
		return ShardInfo{}, err
	}
	return shardInfo(sh), nil
}

// DropShard removes a shard from the serving set, reporting whether it
// was present. Estimates stop reflecting its documents immediately;
// earlier snapshots still see them. On a durable database the drop is
// sealed by an immediate checkpoint (otherwise recovery would replay
// the shard's WAL record and resurrect it); the error reports a failed
// checkpoint.
func (db *Database) DropShard(id uint64) (bool, error) {
	if db.durable != nil {
		return db.durable.Drop(id)
	}
	return db.store.Drop(id), nil
}

// Compact runs one round of size-tiered compaction: small shards are
// rebuilt into one merged shard entirely off the serving path, then
// swapped in atomically. The zero policy uses defaults (see
// shard.DefaultCompactionPolicy). It returns the number of shards
// merged away (0 when nothing qualified).
func (db *Database) Compact(policy CompactionPolicy) (int, error) {
	return db.store.Compact(policy)
}

// Shards lists the live shards in serving order.
func (db *Database) Shards() []ShardInfo {
	shs := db.store.Current().Shards()
	out := make([]ShardInfo, len(shs))
	for i, sh := range shs {
		out[i] = shardInfo(sh)
	}
	return out
}

// ShardCount returns the number of live shards.
func (db *Database) ShardCount() int { return db.store.Current().Len() }

// DatabaseStats describes the serving corpus at one snapshot — the
// cheap introspection behind the daemon's corpus families
// (xqest_corpus_docs and the rest). It is
// computed from shard metadata only: no merged view is materialized.
type DatabaseStats struct {
	// Version is the snapshot's version (see Database.Version).
	Version uint64 `json:"version"`
	// Shards counts live shards; SummaryOnlyShards of them carry only
	// prebuilt summaries.
	Shards            int `json:"shards"`
	SummaryOnlyShards int `json:"summary_only_shards"`
	// Docs and Nodes sum the per-shard document and node counts.
	Docs  int `json:"docs"`
	Nodes int `json:"nodes"`
	// Predicates is the registered vocabulary size (first tree-backed
	// shard's catalog; 0 when every shard is summary-only).
	Predicates int `json:"predicates"`
}

// Stats returns corpus statistics from one consistent snapshot.
func (db *Database) Stats() DatabaseStats { return statsOf(db.store.Current()) }

// statsOf aggregates one shard set's statistics — the single source
// both Database.Stats and Estimator.Stats (and through it the daemon's
// corpus families) report from.
func statsOf(set *shard.Set) DatabaseStats {
	s := DatabaseStats{
		Version: set.Version(),
		Shards:  set.Len(),
		Docs:    set.TotalDocs(),
		Nodes:   set.TotalNodes(),
	}
	for _, sh := range set.Shards() {
		if sh.SummaryOnly() {
			s.SummaryOnlyShards++
		} else if s.Predicates == 0 {
			s.Predicates = sh.Catalog().Len()
		}
	}
	return s
}

// Version returns the serving snapshot's version; it increases with
// every Append, DropShard and Compact.
func (db *Database) Version() uint64 { return db.store.Version() }

// Store exposes the underlying shard store for advanced use (streamed
// summary-only shards, custom compaction scheduling).
func (db *Database) Store() *shard.Store { return db.store }

func shardInfo(sh *shard.Shard) ShardInfo {
	return ShardInfo{
		ID:          sh.ID(),
		Docs:        sh.Docs(),
		Nodes:       sh.Nodes(),
		SummaryOnly: sh.SummaryOnly(),
		Version:     sh.InstalledAt(),
		WALSeq:      sh.WALSeq(),
	}
}

// Tree exposes the underlying numbered tree: the single shard's tree,
// or — after appends — a merged mega-tree view over every
// document-backed shard, rebuilt lazily per version.
func (db *Database) Tree() *xmltree.Tree {
	t, _ := db.mergedView()
	return t
}

// Catalog exposes the predicate catalog over Tree().
func (db *Database) Catalog() *predicate.Catalog {
	_, cat := db.mergedView()
	return cat
}

// mergedView returns the mega-tree and catalog over all document-backed
// shards. With exactly one such shard it returns that shard's own tree
// and live catalog (the seed's monolithic behaviour); otherwise it
// merges and re-materializes, cached per store version.
func (db *Database) mergedView() (*xmltree.Tree, *predicate.Catalog) {
	set := db.store.Current()
	backed := make([]*shard.Shard, 0, set.Len())
	for _, sh := range set.Shards() {
		if !sh.SummaryOnly() {
			backed = append(backed, sh)
		}
	}
	if len(backed) == 1 {
		return backed[0].Tree(), backed[0].Catalog()
	}
	db.mergedMu.Lock()
	defer db.mergedMu.Unlock()
	if db.mergedVer == set.Version() && db.merged != nil {
		return db.merged, db.mergedCat
	}
	trees := make([]*xmltree.Tree, len(backed))
	for i, sh := range backed {
		trees[i] = sh.Tree()
	}
	merged := xmltree.Merge(trees...)
	cat := db.store.Spec().Build(merged)
	// Only cache forward: a caller that loaded an older set before a
	// concurrent Append must not evict a newer cached view.
	if db.merged == nil || set.Version() >= db.mergedVer {
		db.merged, db.mergedCat, db.mergedVer = merged, cat, set.Version()
	}
	return merged, cat
}

// invalidateMerged drops the cached merged view after predicate
// registration changed the vocabulary.
func (db *Database) invalidateMerged() {
	db.mergedMu.Lock()
	db.merged, db.mergedCat, db.mergedVer = nil, nil, 0
	db.mergedMu.Unlock()
}

// AddAllTagPredicates registers a Tag predicate per distinct element
// tag and the TRUE predicate, on every shard and in the recipe for
// future shards. It returns the number of tag predicates on the first
// shard. Registration is setup-time API: it must not run concurrently
// with estimation or appends.
func (db *Database) AddAllTagPredicates() int {
	n := db.store.AddAllTagPredicates()
	db.invalidateMerged()
	return n
}

// AddPredicate registers a predicate for use in patterns (referenced by
// name with the {name} syntax, or implicitly for Tag predicates).
func (db *Database) AddPredicate(p Predicate) { db.AddPredicates(p) }

// AddPredicates registers several predicates in one
// predicate.Catalog.AddBatch per shard.
func (db *Database) AddPredicates(ps ...Predicate) {
	db.store.AddPredicates(ps...)
	db.invalidateMerged()
}

// Count computes the exact answer size of a twig pattern — the ground
// truth the paper's tables report in their "Real Result" column. With
// multiple shards the per-shard exact counts are summed (matches never
// span documents); summary-only shards cannot be counted over.
func (db *Database) Count(patternSrc string) (float64, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return 0, err
	}
	return db.store.Current().Count(p)
}

// Participation computes, per pattern node in pre-order, the exact
// number of distinct data nodes participating in at least one match.
func (db *Database) Participation(patternSrc string) ([]int64, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return nil, err
	}
	tree, cat := db.mergedView()
	return match.Participation(tree, p, resolveIn(cat))
}

// resolveIn returns a predicate resolver over one consistent catalog.
// Exact-matching paths must resolve against the same merged view they
// walk: re-reading db.mergedView() per name could observe a newer
// version mid-walk when Append runs concurrently, yielding node ids
// numbered against a different tree.
func resolveIn(cat *predicate.Catalog) func(string) ([]xmltree.NodeID, error) {
	return func(name string) ([]xmltree.NodeID, error) {
		e, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
}

// Naive returns the paper's naive baseline for a pattern: the product
// of the node counts of its predicates.
func (db *Database) Naive(patternSrc string) (float64, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return 0, err
	}
	_, cat := db.mergedView()
	est := 1.0
	for _, n := range p.Nodes() {
		e, err := cat.Get(n.PredName())
		if err != nil {
			return 0, err
		}
		est *= float64(e.Count())
	}
	return est, nil
}

// SchemaUpperBound returns the schema-only bound for a two-node
// pattern: the descendant's count when the ancestor predicate has the
// no-overlap property. ok is false for other patterns.
func (db *Database) SchemaUpperBound(patternSrc string) (bound float64, ok bool, err error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return 0, false, err
	}
	nodes := p.Nodes()
	if len(nodes) != 2 {
		return 0, false, nil
	}
	_, cat := db.mergedView()
	anc, err := cat.Get(nodes[0].PredName())
	if err != nil {
		return 0, false, err
	}
	desc, err := cat.Get(nodes[1].PredName())
	if err != nil {
		return 0, false, err
	}
	bound, ok = core.SchemaUpperBound(anc.NoOverlap, desc.Count())
	return bound, ok, nil
}

// Estimator answers answer-size queries from histogram summaries.
// Concurrent estimation is safe: each call serves from an atomically
// loaded immutable shard snapshot. A live estimator (from NewEstimator)
// follows the database — estimates reflect shards appended, dropped or
// compacted after it was created; Snapshot pins the current shard set
// instead. Compiled queries live in the database's store, one bounded
// memo shared by every estimator over it (see Compile), so an
// estimator holds no query state of its own. Registering new
// predicates through Core().Synthesize mutates the summary maps and
// must not run concurrently with estimation.
type Estimator struct {
	db *Database // nil for estimators loaded from a summary blob
	// store is the database's shard store, or the private store a
	// loaded estimator serves its blob from (see LoadEstimator).
	store  *shard.Store
	opts   core.Options
	pinned *shard.Set // non-nil: frozen snapshot, ignores later mutations

	// Lazily built monolithic summary over the merged view, for Core().
	// Keyed by the merged catalog (live estimators; a new catalog is
	// materialized per version and per predicate registration) or by the
	// pinned set (snapshots; immutable).
	coreMu  sync.Mutex
	coreKey any
	coreEst *core.Estimator
}

// NewEstimator builds the position histograms (and coverage histograms
// for no-overlap predicates) for every registered predicate on every
// shard, and registers the options with the store so future appends
// summarize new shards eagerly (off the estimation path).
//
// Options are validated first (see core.Options.Validate): a negative
// GridSize or BuildWorkers is a configuration error,
// so a daemon booted with bad flags fails here rather than misbehaving
// under load. Zero values select defaults.
func (db *Database) NewEstimator(opts Options) (*Estimator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.GridSize == 0 {
		opts.GridSize = core.DefaultOptions.GridSize
	}
	if _, err := db.store.EnsureSummaries(opts); err != nil {
		return nil, err
	}
	return &Estimator{db: db, store: db.store, opts: opts}, nil
}

// set returns the shard set this estimator currently serves from.
func (e *Estimator) set() *shard.Set {
	if e.pinned != nil {
		return e.pinned
	}
	return e.store.Current()
}

// Snapshot returns an estimator pinned to the current shard set:
// estimates ignore all later Appends, Drops and Compacts, and stay
// answerable even after the originating shards leave the serving set.
func (e *Estimator) Snapshot() *Estimator {
	return &Estimator{db: e.db, store: e.store, opts: e.opts, pinned: e.set()}
}

// Options returns the estimator's effective options (defaults
// applied). Estimators loaded from a summary blob report the zero
// options: their grid lives inside the blob.
func (e *Estimator) Options() Options { return e.opts }

// ShardCount returns the number of shards in the serving (or pinned)
// set.
func (e *Estimator) ShardCount() int { return e.set().Len() }

// Version returns the version of the shard set the estimator serves
// from.
func (e *Estimator) Version() uint64 { return e.set().Version() }

// Stale reports whether a pinned snapshot has fallen behind the live
// database (live estimators are never stale).
func (e *Estimator) Stale() bool {
	return e.pinned != nil && e.pinned.Version() != e.store.Version()
}

// Estimate estimates the answer size of a twig pattern, choosing the
// no-overlap algorithm wherever the schema allows and the primitive
// pH-Join elsewhere. Repeated estimates of the same pattern source hit
// the store's compiled-query memo (see Compile) and skip parsing
// entirely.
func (e *Estimator) Estimate(patternSrc string) (Result, error) {
	_, b, err := e.store.Compile(patternSrc, e.opts, e.set(), e.pinned == nil)
	if err != nil {
		return Result{}, err
	}
	return b.Estimate()
}

// BatchResult couples estimates with the single snapshot version they
// were all served from.
type BatchResult struct {
	// Version identifies the shard-set snapshot every result reflects.
	Version uint64
	// Results holds one Result per input pattern, in input order.
	Results []Result
}

// EstimateBatch estimates every pattern against one consistent
// snapshot: the shard set is pinned once, so results are mutually
// consistent even while appends, drops or compactions land
// concurrently — the serving guarantee the daemon's batched /estimate
// endpoint exposes. Patterns share the store's compiled-query memo.
// Any invalid pattern fails the whole batch.
func (e *Estimator) EstimateBatch(patterns []string) (BatchResult, error) {
	version, results, err := e.EstimateBatchInto(patterns, nil)
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Version: version, Results: results}, nil
}

// EstimateBatchInto is EstimateBatch reusing the caller's result slice
// (appending from dst[:0]; pass nil to allocate), the allocation-free
// form the daemon's pooled request scratch uses. Every pattern binds to
// the same pinned snapshot, so the results are mutually consistent;
// repeated batches of hot patterns do no per-call allocation at all.
func (e *Estimator) EstimateBatchInto(patterns []string, dst []Result) (version uint64, results []Result, err error) {
	set := e.set()
	results = dst[:0]
	for _, src := range patterns {
		_, b, err := e.store.Compile(src, e.opts, set, e.pinned == nil)
		if err != nil {
			return 0, nil, err
		}
		res, err := b.Estimate()
		if err != nil {
			return 0, nil, err
		}
		results = append(results, res)
	}
	return set.Version(), results, nil
}

// ShadowCount computes the exact answer size of a pattern against the
// estimator's serving (or pinned) set within a wall-clock budget — the
// shadow-execution entry point of the online accuracy monitor. Call on
// a Snapshot so the count reflects the same shard set the estimate
// came from. Errors classify through errors.Is:
// context.DeadlineExceeded for a blown budget, and
// accuracy.ErrUnverifiable when the set holds summary-only shards (no
// documents to verify against). The zero deadline disables the budget.
func (e *Estimator) ShadowCount(patternSrc string, deadline time.Time) (float64, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return 0, err
	}
	n, err := e.set().CountBudget(p, deadline)
	if errors.Is(err, shard.ErrSummaryOnly) {
		return 0, fmt.Errorf("%w: %w", accuracy.ErrUnverifiable, err)
	}
	return n, err
}

// Stats returns corpus statistics for the estimator's serving (or
// pinned) set.
func (e *Estimator) Stats() DatabaseStats { return statsOf(e.set()) }

// MergeSummaries does nothing. Estimates are always the per-shard sum
// (see DESIGN.md, "Serving plan"), so there is no merged view to fold;
// the method is kept for API compatibility.
func (db *Database) MergeSummaries() {}

// Shards lists the shards of the serving (or pinned) set.
func (e *Estimator) Shards() []ShardInfo {
	shs := e.set().Shards()
	out := make([]ShardInfo, len(shs))
	for i, sh := range shs {
		out[i] = shardInfo(sh)
	}
	return out
}

// Compile parses and prepares a twig pattern once: predicate references
// are resolved eagerly against the current shard set (a name unknown to
// every shard fails here), and the compiled query keeps its per-shard
// folded join results, so Estimate on a PreparedQuery costs histogram
// arithmetic only. Use Compile to hold a hot query without a memo
// lookup per call, or to surface pattern errors early.
//
// Compiled queries live in the store: one 256-entry memo keyed by
// pattern source and options, shared by every estimator and every
// PreparedQuery over the database (Estimate and EstimateBatch use it
// too). Whenever the serving set changes, the writer that builds the
// new set rebinds each query read since the previous change before
// publishing it, so the next estimate finds its binding ready; other
// queries rebind on their next call. Estimates are the same either
// way, bit for bit.
func (e *Estimator) Compile(patternSrc string) (*PreparedQuery, error) {
	q, _, err := e.store.Compile(patternSrc, e.opts, e.set(), e.pinned == nil)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{est: e, q: q}, nil
}

// PreparedQuery is a handle on a compiled twig query in the store's
// memo (see Compile), estimated against its Estimator's serving (or
// pinned) set. It is safe for concurrent use and follows the set:
// after an append, drop or compaction its binding was usually rebound
// before the new set was published, and otherwise rebinds on its next
// call.
type PreparedQuery struct {
	est *Estimator
	q   *shard.Query
}

// Source returns the pattern source the query was compiled from.
func (pq *PreparedQuery) Source() string { return pq.q.Source() }

// Estimate returns the estimated answer size of the compiled twig
// against the estimator's current shard set.
func (pq *PreparedQuery) Estimate() (Result, error) {
	b, err := pq.q.Bind(pq.est.set())
	if err != nil {
		return Result{}, err
	}
	return b.Estimate()
}

// EstimatePrimitive forces the primitive (overlap) algorithm for a
// two-node pattern — the "Overlap Estimate" column of the paper's
// tables.
func (e *Estimator) EstimatePrimitive(patternSrc string) (Result, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return Result{}, err
	}
	nodes := p.Nodes()
	if len(nodes) != 2 {
		return Result{}, fmt.Errorf("xmlest: EstimatePrimitive requires a two-node pattern, got %d nodes", len(nodes))
	}
	return e.set().EstimatePairPrimitive(nodes[0].PredName(), nodes[1].PredName(), e.opts)
}

// Core exposes a monolithic core estimator for advanced use (query
// planners needing sub-pattern estimates). With a single shard it is
// that shard's own summary — the exact estimator Estimate consults.
// With multiple shards it is a summary built over the merged mega-tree
// view of the estimator's own shard set — a pinned snapshot merges its
// pinned shards, not the live database. Estimators loaded from a
// multi-shard blob (and snapshots holding only summary-only shards)
// have no documents to merge and return nil.
func (e *Estimator) Core() *core.Estimator {
	set := e.set()
	if set.Len() == 1 {
		est, err := set.Shards()[0].Summary(e.opts)
		if err != nil {
			return nil
		}
		return est
	}
	if e.pinned != nil {
		return e.coreFor(set, func() *predicate.Catalog {
			var trees []*xmltree.Tree
			for _, sh := range set.Shards() {
				if !sh.SummaryOnly() {
					trees = append(trees, sh.Tree())
				}
			}
			if len(trees) == 0 {
				return nil
			}
			return e.store.Spec().Build(xmltree.Merge(trees...))
		})
	}
	if e.db == nil {
		return nil
	}
	// Live estimator: the merged catalog is the cache key — a fresh one
	// is materialized per store version and per predicate registration,
	// so staleness on either axis forces a rebuild.
	_, cat := e.db.mergedView()
	return e.coreFor(cat, func() *predicate.Catalog { return cat })
}

// coreFor returns the cached monolithic summary for the given cache
// key, building it from the catalog the supplier materializes.
func (e *Estimator) coreFor(key any, catFn func() *predicate.Catalog) *core.Estimator {
	e.coreMu.Lock()
	defer e.coreMu.Unlock()
	if e.coreEst != nil && e.coreKey == key {
		return e.coreEst
	}
	cat := catFn()
	if cat == nil {
		return nil
	}
	est, err := core.NewEstimator(cat, e.opts)
	if err != nil {
		return nil
	}
	e.coreEst, e.coreKey = est, key
	return est
}

// StorageBytes reports the total compact-encoding size of all summary
// structures across shards — the paper's storage metric.
func (e *Estimator) StorageBytes() int {
	n, err := e.set().StorageBytes(e.opts)
	if err != nil {
		return 0
	}
	return n
}

// MarshalBinary serializes every summary structure, so estimation can
// run later without the data (see LoadEstimator), as one XQS2 shard-set
// container for any number of shards.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	return e.set().Marshal(e.opts)
}

// LoadEstimator reconstructs an estimator from an XQS2 summary blob
// produced by Estimator.MarshalBinary. The loaded estimator answers
// every estimation query; exact counting requires the original
// Database.
func LoadEstimator(blob []byte) (*Estimator, error) {
	set, err := shard.LoadSet(blob)
	if err != nil {
		return nil, err
	}
	// The loaded set is the only set of a store of its own, so the
	// estimator serves it live, with a compiled-query memo like a
	// database's.
	return &Estimator{store: shard.StoreOf(set)}, nil
}

// Find enumerates up to limit concrete matches of a twig pattern
// (limit <= 0 enumerates all). Each match lists the data node assigned
// to each pattern node in pattern pre-order, with node ids into
// Tree()'s merged view. Combined with Estimator.Estimate, this models
// the paper's online-query scenario: show the first page of results
// together with a predicted total.
func (db *Database) Find(patternSrc string, limit int) ([]match.Match, error) {
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return nil, err
	}
	tree, cat := db.mergedView()
	return match.FindTwigMatches(tree, p, resolveIn(cat), limit)
}
