package predicate

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"xmlest/internal/xmltree"
)

// Entry is the materialized form of one predicate over one tree: the
// sorted list of satisfying nodes and the detected overlap property.
type Entry struct {
	Pred Predicate

	// Nodes holds the ids of all satisfying nodes, sorted by start
	// position (document order).
	Nodes []xmltree.NodeID

	// NoOverlap reports Definition 2: no two satisfying nodes are in an
	// ancestor-descendant relationship. It is detected from the data;
	// a schema could assert it a priori, with identical downstream
	// behaviour.
	NoOverlap bool
}

// Count returns the number of satisfying nodes.
func (e *Entry) Count() int { return len(e.Nodes) }

// Catalog maps predicate names to materialized entries over a fixed
// tree. It corresponds to the paper's "set P of basic predicates" plus
// the index structures that identify the node lists for each.
type Catalog struct {
	Tree    *xmltree.Tree
	entries map[string]*Entry
	order   []string // registration order, for stable reporting
}

// NewCatalog creates an empty catalog over the tree.
func NewCatalog(t *xmltree.Tree) *Catalog {
	return &Catalog{Tree: t, entries: make(map[string]*Entry)}
}

// Add materializes the predicate and registers it under pred.Name().
// Registering the same name twice replaces the entry. It returns the
// new entry.
func (c *Catalog) Add(pred Predicate) *Entry {
	return c.AddBatch([]Predicate{pred})[0]
}

// parallelNodes is the tree size from which AddBatch spreads its
// direct work over GOMAXPROCS goroutines. On DBLP trees (2 vCPUs) the
// parallel catalog took as long as the serial one from 3k to 62k nodes
// and half as long from 155k nodes up, so below the threshold (every
// appended shard, and the compacted shards of a 30 s ingest-mixed run,
// 43k nodes at most) it would only take CPU from concurrent readers.
// It is a property of the work, not of a deployment, so it is not an
// option.
const parallelNodes = 1 << 16

// AddBatch materializes several predicates and registers them in order;
// the entries are identical to calling Add per predicate in the same
// order. Some of this package's predicates are read off the tree's
// indexes directly: TRUE is the id range 1..n-1, Tag copies its
// postings list, and a predicate that must carry a tag (Tag,
// TagContent, Named over one, or an And with one among its parts) is
// evaluated only over that tag's postings. On trees of at least
// parallelNodes nodes those predicates, with their no-overlap checks,
// are spread over GOMAXPROCS goroutines. Every other predicate,
// including any of another type (whose Eval may not be safe to call
// concurrently), is evaluated in one shared serial O(n) scan.
func (c *Catalog) AddBatch(preds []Predicate) []*Entry {
	entries := make([]*Entry, len(preds))
	var direct, scanned []int // indices of the two kinds of predicate
	for k, pred := range preds {
		if _, ok := pred.(True); ok || anchored(pred) {
			direct = append(direct, k)
		} else {
			scanned = append(scanned, k)
		}
	}
	if len(scanned) > 0 {
		ps := make([]Predicate, len(scanned))
		for i, k := range scanned {
			ps[i] = preds[k]
		}
		for i, nodes := range c.scan(ps) {
			entries[scanned[i]] = c.entry(ps[i], nodes)
		}
	}
	var next atomic.Int64 // the next index into direct to materialize
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(direct); i = int(next.Add(1)) - 1 {
			k := direct[i]
			entries[k] = c.entry(preds[k], c.materialize(preds[k]))
		}
	}
	if len(c.Tree.Nodes) < parallelNodes {
		work()
	} else {
		var wg sync.WaitGroup
		for w := min(runtime.GOMAXPROCS(0), len(direct)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, e := range entries {
		c.store(e)
	}
	return entries
}

// anchored reports whether pred is built of this package's predicates
// only and must carry a tag (see anchor).
func anchored(pred Predicate) bool {
	_, _, ok := anchor(pred)
	return ok && native(pred)
}

// native reports whether pred and every predicate inside it are this
// package's types, whose Eval is pure and safe to call concurrently.
func native(pred Predicate) bool {
	switch p := pred.(type) {
	case Tag, TagContent, ContentEquals, ContentPrefix, ContentSuffix, ContentContains, NumericRange, True:
		return true
	case Named:
		return native(p.Inner)
	case Not:
		return native(p.Inner)
	case And:
		return allNative(p.Parts)
	case Or:
		return allNative(p.Parts)
	}
	return false
}

func allNative(preds []Predicate) bool {
	for _, p := range preds {
		if !native(p) {
			return false
		}
	}
	return true
}

// anchor returns the tag that every node satisfying pred carries, when
// pred says so by construction, and rest: what a node with that tag
// must still satisfy to satisfy pred (nil when nothing).
func anchor(pred Predicate) (tag string, rest Predicate, ok bool) {
	switch p := pred.(type) {
	case Tag:
		return p.Value, nil, true
	case TagContent:
		return p.Tag, ContentEquals{Value: p.Value}, true
	case Named:
		return anchor(p.Inner)
	case And:
		for i, q := range p.Parts {
			if tag, rest, ok := anchor(q); ok {
				parts := append(append([]Predicate{}, p.Parts[:i]...), p.Parts[i+1:]...)
				if rest != nil {
					parts = append(parts, rest)
				}
				switch len(parts) {
				case 0:
					return tag, nil, true
				case 1:
					return tag, parts[0], true
				}
				return tag, And{Parts: parts}, true
			}
		}
	}
	return "", nil, false
}

// materialize returns the nodes satisfying TRUE or an anchored
// predicate, in document order: the id range for TRUE, the postings
// copy for Tag, and an evaluation over its tag's postings otherwise.
func (c *Catalog) materialize(pred Predicate) []xmltree.NodeID {
	switch p := pred.(type) {
	case Tag:
		return c.tagNodes(p)
	case True:
		if len(c.Tree.Nodes) <= 1 {
			return nil
		}
		nodes := make([]xmltree.NodeID, len(c.Tree.Nodes)-1)
		for i := range nodes {
			nodes[i] = xmltree.NodeID(i + 1)
		}
		return nodes
	}
	tag, rest, _ := anchor(pred)
	var nodes []xmltree.NodeID
	for _, id := range c.Tree.NodesWithTag(tag) {
		if rest == nil || rest.Eval(c.Tree, id) {
			nodes = append(nodes, id)
		}
	}
	return nodes
}

// scan evaluates every predicate on every node in one pass and returns
// each one's satisfying nodes in document order.
func (c *Catalog) scan(preds []Predicate) [][]xmltree.NodeID {
	lists := make([][]xmltree.NodeID, len(preds))
	for id := xmltree.NodeID(1); int(id) < len(c.Tree.Nodes); id++ {
		for k, pred := range preds {
			if pred.Eval(c.Tree, id) {
				lists[k] = append(lists[k], id)
			}
		}
	}
	return lists
}

// tagNodes copies a tag predicate's postings list.
func (c *Catalog) tagNodes(tp Tag) []xmltree.NodeID {
	src := c.Tree.NodesWithTag(tp.Value)
	nodes := make([]xmltree.NodeID, len(src))
	copy(nodes, src)
	return nodes
}

// entry detects the no-overlap property of pred's satisfying nodes.
func (c *Catalog) entry(pred Predicate, nodes []xmltree.NodeID) *Entry {
	return &Entry{Pred: pred, Nodes: nodes, NoOverlap: noOverlap(c.Tree, nodes)}
}

// store registers e under its predicate's name, replacing any entry of
// that name but keeping its place in the registration order.
func (c *Catalog) store(e *Entry) {
	name := e.Pred.Name()
	if _, exists := c.entries[name]; !exists {
		c.order = append(c.order, name)
	}
	c.entries[name] = e
}

// AddAllTags registers a Tag predicate for every distinct element tag in
// the tree (the paper: "build a histogram on each one of these distinct
// element tags"). Attribute pseudo-tags ("@...") are included; the dummy
// root tag is not a real tag and never appears. It returns the number of
// predicates added.
func (c *Catalog) AddAllTags() int {
	return len(c.AddBatch(tagPredicates(c.Tree)))
}

// tagPredicates returns a Tag predicate per distinct tag of t, in
// Tags order.
func tagPredicates(t *xmltree.Tree) []Predicate {
	tags := t.Tags()
	preds := make([]Predicate, len(tags))
	for i, tag := range tags {
		preds[i] = Tag{Value: tag}
	}
	return preds
}

// Get returns the entry registered under the given name, or an error
// naming the missing predicate.
func (c *Catalog) Get(name string) (*Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("predicate: no entry %q in catalog", name)
	}
	return e, nil
}

// MustGet is Get for callers that registered the predicate themselves.
func (c *Catalog) MustGet(name string) *Entry {
	e, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Has reports whether a predicate with the given name is registered.
func (c *Catalog) Has(name string) bool {
	_, ok := c.entries[name]
	return ok
}

// Names returns the registered predicate names in registration order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Len returns the number of registered predicates.
func (c *Catalog) Len() int { return len(c.entries) }

// noOverlap detects Definition 2 in O(n) over a start-sorted node list:
// scanning in document order with a stack of currently open satisfying
// intervals, a node that begins before the top of the stack ends is
// nested inside another satisfying node.
func noOverlap(t *xmltree.Tree, nodes []xmltree.NodeID) bool {
	var stack []int // end positions of open satisfying intervals
	for _, id := range nodes {
		n := t.Node(id)
		for len(stack) > 0 && stack[len(stack)-1] < n.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			return false
		}
		stack = append(stack, n.End)
	}
	return true
}

// Sorted checks that a node list is sorted by start position; catalogs
// produce sorted lists by construction, and downstream algorithms
// (exact matching, histogram building) rely on it.
func Sorted(t *xmltree.Tree, nodes []xmltree.NodeID) bool {
	return sort.SliceIsSorted(nodes, func(i, j int) bool {
		return t.Node(nodes[i]).Start < t.Node(nodes[j]).Start
	})
}
