package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xmlest/internal/cache"
	"xmlest/internal/core"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// Store owns a shard set and serializes its mutations. Reads go through
// Current(), which atomically loads the serving Set; writers build new
// shards off the serving path and install a copy-on-write successor
// Set, so estimation is never blocked by ingest or compaction.
//
// Predicate registration (the Spec mutators) is setup-time API: it
// rebuilds existing shards' catalogs in place and must not run
// concurrently with estimation or with other store mutations, mirroring
// the facade's long-standing contract.
type Store struct {
	specMu sync.Mutex
	spec   predicate.Spec

	// active is the set of estimator options in serving use. Append and
	// Compact eagerly build each new shard's summaries for these, so the
	// first post-append estimate does not pay the build.
	activeMu sync.Mutex
	active   map[core.Options]struct{}

	writeMu sync.Mutex // serializes set swaps (every publish)
	cur     atomic.Pointer[Set]
	nextID  atomic.Uint64

	// queries is the compiled-query memo shared by every estimator and
	// compiled handle over this store (see compiled.go).
	queries *cache.LRU[queryKey, *Query]

	// prepFanout counts bindings compiled on demand (PrepareSet, Rebind)
	// and prepWarmed those compiled by publish before a set became
	// visible (both exported by Collect, see collect.go).
	prepFanout atomic.Uint64
	prepWarmed atomic.Uint64
}

// NewStore returns a store with an empty shard set and the given
// predicate recipe.
func NewStore(spec predicate.Spec) *Store {
	return storeOf(spec, &Set{version: 1, lineage: newLineage()})
}

// StoreOf returns a store serving set, for a set loaded from a summary
// blob: nothing is ever appended to it, but its estimators share one
// compiled-query memo as a live store's do.
func StoreOf(set *Set) *Store { return storeOf(predicate.Spec{}, set) }

func storeOf(spec predicate.Spec, set *Set) *Store {
	st := &Store{
		spec:    spec,
		active:  make(map[core.Options]struct{}),
		queries: cache.New[queryKey, *Query](compiledCacheSize),
	}
	st.cur.Store(set)
	return st
}

// Current returns the serving snapshot. The returned Set is immutable;
// callers may estimate against it for as long as they like, unaffected
// by concurrent mutations.
func (st *Store) Current() *Set { return st.cur.Load() }

// Version returns the serving snapshot's version.
func (st *Store) Version() uint64 { return st.Current().version }

// Spec returns the store's current predicate recipe.
func (st *Store) Spec() predicate.Spec {
	st.specMu.Lock()
	defer st.specMu.Unlock()
	return st.spec.Clone()
}

// EnsureSummaries builds (and caches) every current shard's summary for
// opts and marks opts active, so future appends and compactions
// summarize new shards eagerly. It is what facade estimator
// construction calls. Active options are normalized (see summaryKey)
// and accumulate for the store's lifetime — one summary per distinct
// option set per shard, the price of keeping every created estimator's
// appends eager.
func (st *Store) EnsureSummaries(opts core.Options) (*Set, error) {
	st.activeMu.Lock()
	st.active[summaryKey(opts)] = struct{}{}
	st.activeMu.Unlock()
	set := st.Current()
	if _, err := set.summaries(opts); err != nil {
		return nil, err
	}
	return set, nil
}

// activeOptions snapshots the active options set.
func (st *Store) activeOptions() []core.Options {
	st.activeMu.Lock()
	defer st.activeMu.Unlock()
	out := make([]core.Options, 0, len(st.active))
	for o := range st.active {
		out = append(out, o)
	}
	return out
}

// newShard wraps a tree and its catalog into a shard with summaries for
// every active option prebuilt — all off the serving path.
func (st *Store) newShard(tree *xmltree.Tree, cat *predicate.Catalog) (*Shard, error) {
	sh := &Shard{
		id:    st.nextID.Add(1),
		tree:  tree,
		cat:   cat,
		docs:  countDocs(tree),
		nodes: tree.NumNodes(),
	}
	for _, opts := range st.activeOptions() {
		if _, err := sh.Summary(opts); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// publish makes next the serving set. Every set swap goes through it,
// under writeMu: first it binds the compiled queries read since the
// previous publish to next (see warm), so those costs fall on the
// writer that built next and not on the next reader of each query.
func (st *Store) publish(next *Set) {
	st.warm(next)
	st.cur.Store(next)
}

// install publishes shards as the serving set at version, in a new
// lineage: drops, compactions and replica snapshots, which do not keep
// the previous set as their prefix. The caller must hold writeMu and
// must have stamped each new shard's installedAt.
func (st *Store) install(shards []*Shard, version uint64) {
	st.publish(&Set{version: version, shards: shards, lineage: newLineage()})
}

// extendLocked publishes the serving set's shards followed by shs at
// version, in the serving set's lineage — the one publish body shared
// by plain, durable, group-committed, replicated and recovered
// appends. The caller must hold writeMu and have stamped each shard's
// installedAt.
func (st *Store) extendLocked(shs []*Shard, version uint64) {
	prev := st.Current()
	next := make([]*Shard, 0, len(prev.shards)+len(shs))
	next = append(append(next, prev.shards...), shs...)
	st.publish(&Set{version: version, shards: next, lineage: prev.lineage})
}

// appendLocked installs sh at the end of the serving set, stamping its
// visibility watermark. The caller must hold writeMu.
func (st *Store) appendLocked(sh *Shard) {
	st.appendGroupLocked([]*Shard{sh})
}

// appendGroupLocked installs a group of shards at consecutive versions
// in ONE copy-on-write swap: shard i's visibility watermark is
// prev.version+i+1 and the new set's version is prev.version+n. Group
// commit lands n batches with one slice copy instead of n; the
// intermediate versions are never served, which is fine — a client
// acked at version prev+i+1 waits for any serving version >= that, and
// the set at prev+n contains its batch.
// The caller must hold writeMu.
func (st *Store) appendGroupLocked(shs []*Shard) {
	prev := st.Current()
	for i, sh := range shs {
		sh.installedAt = prev.version + uint64(i) + 1
	}
	st.extendLocked(shs, prev.version+uint64(len(shs)))
}

// setMinVersion raises the serving set's version to at least v without
// changing membership (or lineage). The durable layer uses it during
// recovery so the version watermark clients observed before a crash
// never regresses: checkpoint loading jumps to the manifest's pinned
// version and each replayed batch re-installs at its original ack
// version.
func (st *Store) setMinVersion(v uint64) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	cur := st.Current()
	if cur.version < v {
		st.publish(&Set{version: v, shards: cur.shards, lineage: cur.lineage})
	}
}

// AppendTree lands an already-parsed tree as a new shard: its catalog
// is materialized from the store's spec and its summaries built for
// every active option, then the shard joins the serving set in one
// atomic swap. Cost is proportional to the new documents only —
// existing shards are untouched.
func (st *Store) AppendTree(tree *xmltree.Tree) (*Shard, error) {
	if tree.NumNodes() == 0 {
		return nil, fmt.Errorf("shard: refusing to append an empty tree")
	}
	cat := st.Spec().Build(tree)
	return st.appendShard(tree, cat)
}

// AppendCatalog lands a tree with an externally materialized catalog as
// a new shard. The catalog must be over the given tree and is adopted
// as-is (it is not rebuilt from the spec).
func (st *Store) AppendCatalog(cat *predicate.Catalog) (*Shard, error) {
	return st.appendShard(cat.Tree, cat)
}

func (st *Store) appendShard(tree *xmltree.Tree, cat *predicate.Catalog) (*Shard, error) {
	sh, err := st.newShard(tree, cat)
	if err != nil {
		return nil, err
	}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	st.appendLocked(sh)
	return sh, nil
}

// Drop removes the shard with the given id from the serving set and
// reports whether it was present. The shard's documents disappear from
// all subsequent estimates; snapshots taken earlier still see them.
func (st *Store) Drop(id uint64) bool {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	prev := st.Current()
	next := make([]*Shard, 0, len(prev.shards))
	found := false
	for _, sh := range prev.shards {
		if sh.id == id {
			found = true
			continue
		}
		next = append(next, sh)
	}
	if !found {
		return false
	}
	st.install(next, prev.version+1)
	return true
}

// AddAllTagPredicates registers a Tag predicate per distinct element
// tag (plus TRUE) on every tree-backed shard and records the recipe for
// future shards. It returns the number of tag predicates on the first
// tree-backed shard (the facade's historical return value). Setup-time
// only: must not run concurrently with estimation or store mutations.
func (st *Store) AddAllTagPredicates() int {
	st.specMu.Lock()
	st.spec.AllTags = true
	st.specMu.Unlock()
	n, first := 0, true
	for _, sh := range st.Current().shards {
		if sh.tree == nil {
			continue
		}
		added := sh.cat.AddAllTags()
		sh.cat.Add(predicate.True{})
		sh.invalidateSummaries()
		if first {
			n, first = added, false
		}
	}
	st.queries.Clear()
	return n
}

// AddPredicates registers predicates on every tree-backed shard (one
// Catalog.AddBatch per shard) and records them for future shards.
// Setup-time only, like AddAllTagPredicates.
func (st *Store) AddPredicates(preds ...predicate.Predicate) {
	st.specMu.Lock()
	st.spec = st.spec.Add(preds...)
	st.specMu.Unlock()
	for _, sh := range st.Current().shards {
		if sh.tree == nil {
			continue
		}
		sh.cat.AddBatch(preds)
		sh.invalidateSummaries()
	}
	st.queries.Clear()
}
