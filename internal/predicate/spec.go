package predicate

import "xmlest/internal/xmltree"

// Spec is a reproducible catalog recipe: which predicates to
// materialize over a tree, independent of any particular tree. The
// shard subsystem applies one Spec to every shard's document subset, so
// all shards answer the same predicate vocabulary; the paper's single
// mega-tree catalog is the one-shard special case.
//
// A Spec is a value; Clone before mutating a shared one.
type Spec struct {
	// AllTags registers a Tag predicate per distinct element tag of the
	// target tree, plus the TRUE predicate (mirroring
	// Database.AddAllTagPredicates). Tag sets may differ between trees;
	// shards lacking a tag simply have no histogram for it and
	// contribute zero to cross-shard estimates.
	AllTags bool

	// Preds are additional predicates registered in order after the tag
	// predicates. Predicates are tree-independent values, so the same
	// predicate can be materialized over any tree.
	Preds []Predicate
}

// SpecFromCatalog reconstructs the recipe a catalog was built from: its
// registered predicates in registration order. AllTags is left false —
// the explicit predicate list already covers whatever tags the source
// catalog had, and re-deriving tags from a different tree would change
// the vocabulary.
func SpecFromCatalog(c *Catalog) Spec {
	s := Spec{Preds: make([]Predicate, 0, c.Len())}
	for _, name := range c.Names() {
		s.Preds = append(s.Preds, c.MustGet(name).Pred)
	}
	return s
}

// Clone returns a deep copy of the spec (the predicate values
// themselves are immutable and shared).
func (s Spec) Clone() Spec {
	out := Spec{AllTags: s.AllTags}
	out.Preds = append(out.Preds, s.Preds...)
	return out
}

// Add appends predicates to the recipe and returns the updated spec.
func (s Spec) Add(preds ...Predicate) Spec {
	out := s.Clone()
	out.Preds = append(out.Preds, preds...)
	return out
}

// Build materializes the spec over a tree in one Catalog.AddBatch: tag
// predicates (and TRUE) first when AllTags is set, then the explicit
// predicates. The result is identical to issuing the same registrations
// by hand on a fresh catalog.
func (s Spec) Build(t *xmltree.Tree) *Catalog {
	c := NewCatalog(t)
	var preds []Predicate
	if s.AllTags {
		preds = append(tagPredicates(t), True{})
	}
	c.AddBatch(append(preds, s.Preds...))
	return c
}
