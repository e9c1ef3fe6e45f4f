package shard

import (
	"sync/atomic"

	"xmlest/internal/core"
	"xmlest/internal/pattern"
)

// compiledCacheSize bounds a store's compiled-query memo.
const compiledCacheSize = 256

// queryKey identifies a compiled query: the pattern source and the
// normalized options (see summaryKey) it is estimated with.
type queryKey struct {
	src  string
	opts core.Options
}

// Query is one entry of a store's compiled-query memo: a parsed
// pattern and its bindings to the store's sets. It is shared by every
// estimator and compiled handle over the store and is safe for
// concurrent use.
//
// cur is the binding readers last served; pending is the binding
// publish prepared for a successor set before it became visible (see
// Store.warm). read marks a query bound since the previous publish:
// publish warms only those. A private query (compiled for a pinned
// snapshot and kept out of the memo) has a single reader.
type Query struct {
	st      *Store
	src     string
	p       *pattern.Pattern
	opts    core.Options
	private bool

	cur     atomic.Pointer[Prepared]
	pending atomic.Pointer[Prepared]
	read    atomic.Bool
}

// Source returns the pattern source the query was compiled from.
func (q *Query) Source() string { return q.src }

// Compile returns the memo's query for (src, opts) bound to set,
// parsing it on a miss. A new query joins the memo only once it binds,
// so a pattern that fails to resolve evicts nothing, and only when
// share is set: live estimators share what they compile, while a
// pinned snapshot uses the memo's entries but compiles a miss as a
// private query, so a point-in-time reader neither evicts live entries
// nor shares a binding with the live readers it is checked against.
func (st *Store) Compile(src string, opts core.Options, set *Set, share bool) (*Query, *Prepared, error) {
	key := queryKey{src: src, opts: summaryKey(opts)}
	q, hit := st.queries.Get(key)
	if !hit {
		p, err := pattern.Parse(src)
		if err != nil {
			return nil, nil, err
		}
		q = &Query{st: st, src: src, p: p, opts: opts, private: !share}
	}
	b, err := q.Bind(set)
	if err != nil {
		return nil, nil, err
	}
	if !hit && share {
		st.queries.Put(key, q)
	}
	return q, b, nil
}

// Bind returns the query's binding to set: the binding readers last
// served or the one publish warmed for set, else a binding compiled
// now from the newest one (Store.Rebind). A shared query keeps a
// binding compiled now only while set is the serving set, so a pinned
// snapshot of an older set never displaces the live binding.
func (q *Query) Bind(set *Set) (*Prepared, error) {
	if !q.read.Load() {
		q.read.Store(true)
	}
	cur := q.cur.Load()
	if cur != nil && cur.set == set {
		return cur, nil
	}
	if b := q.pending.Load(); b != nil && b.set == set {
		q.cur.CompareAndSwap(cur, b)
		return b, nil
	}
	b, err := q.st.Rebind(q.newest(), set, q.p, q.opts)
	if err != nil {
		return nil, err
	}
	if q.private || set == q.st.Current() {
		q.cur.CompareAndSwap(cur, b)
	}
	return b, nil
}

// newest returns the query's binding to the latest set it has one for,
// the cheapest start for a rebind; nil when it has none.
func (q *Query) newest() *Prepared {
	cur, pending := q.cur.Load(), q.pending.Load()
	if pending == nil || (cur != nil && cur.set.version > pending.set.version) {
		return cur
	}
	return pending
}

// warm binds every query read since the previous publish to next and
// evaluates the binding, storing it as the query's pending binding, so
// the first reader of next finds it ready. It runs under writeMu, just
// before next becomes visible. A query not read since the previous
// publish is left alone, and a failed bind is dropped: readers then
// bind on demand, which gives the same bits.
func (st *Store) warm(next *Set) {
	for _, q := range st.queries.Values(make([]*Query, 0, compiledCacheSize)) {
		if !q.read.Swap(false) {
			continue
		}
		b, err := next.rebind(q.newest(), q.p, q.opts)
		if err != nil {
			continue
		}
		if _, err := b.Estimate(); err != nil {
			continue
		}
		q.pending.Store(b)
		st.prepWarmed.Add(1)
	}
}
