package predicate_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"xmlest/internal/datagen"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// startMod is a predicate type defined outside the package: catalogs
// must evaluate it, and anything it is part of, in their serial scan.
type startMod struct{ mod, rem int }

func (p startMod) Name() string { return fmt.Sprintf("start%%%d=%d", p.mod, p.rem) }
func (p startMod) Eval(t *xmltree.Tree, id xmltree.NodeID) bool {
	return t.Node(id).Start%p.mod == p.rem
}

// predGen draws random predicate trees over one tree's vocabulary, so
// that most of them match some nodes but not all.
type predGen struct {
	r     *rand.Rand
	tags  []string        // the tree's tags plus one it does not have
	nodes []*xmltree.Node // a sample of the tree's nodes with text
	alias int
}

func newPredGen(r *rand.Rand, tr *xmltree.Tree) *predGen {
	g := &predGen{r: r, tags: append(tr.Tags(), "no-such-tag")}
	for i := 0; i < 64; i++ {
		if n := tr.Node(xmltree.NodeID(1 + r.Intn(tr.NumNodes()))); n.Text != "" {
			g.nodes = append(g.nodes, n)
		}
	}
	if len(g.nodes) == 0 {
		g.nodes = []*xmltree.Node{{Tag: "x", Text: "x"}}
	}
	return g
}

func (g *predGen) node() *xmltree.Node { return g.nodes[g.r.Intn(len(g.nodes))] }

func (g *predGen) tag() string {
	if g.r.Intn(2) == 0 {
		return g.node().Tag
	}
	return g.tags[g.r.Intn(len(g.tags))]
}

// tagContent mostly names a tag and text that occur together.
func (g *predGen) tagContent() predicate.Predicate {
	if g.r.Intn(4) == 0 {
		return predicate.TagContent{Tag: g.tag(), Value: g.text()}
	}
	n := g.node()
	return predicate.TagContent{Tag: n.Tag, Value: n.Text}
}

// text returns a node text, or a prefix or suffix of one.
func (g *predGen) text() string {
	s := g.node().Text
	switch n := g.r.Intn(len(s) + 1); g.r.Intn(3) {
	case 1:
		return s[:n]
	case 2:
		return s[n:]
	}
	return s
}

// tagged returns a predicate that must carry a tag.
func (g *predGen) tagged(depth int) predicate.Predicate {
	kinds := 4
	if depth <= 0 {
		kinds = 2
	}
	switch g.r.Intn(kinds) {
	case 0:
		return predicate.Tag{Value: g.tag()}
	case 1:
		return g.tagContent()
	case 2:
		return g.named(g.tagged(depth - 1))
	}
	return g.and(depth - 1)
}

func (g *predGen) named(inner predicate.Predicate) predicate.Predicate {
	g.alias++
	return predicate.Named{Alias: "p" + strconv.Itoa(g.alias), Inner: inner}
}

// and returns an And whose part that must carry a tag stands first, in
// the middle or last.
func (g *predGen) and(depth int) predicate.Predicate {
	parts := []predicate.Predicate{g.pred(depth - 1)}
	if g.r.Intn(2) == 0 {
		parts = append(parts, g.pred(depth-2))
	}
	return predicate.And{Parts: slices.Insert(parts, g.r.Intn(len(parts)+1), g.tagged(depth-1))}
}

func (g *predGen) leaf() predicate.Predicate {
	switch g.r.Intn(9) {
	case 0:
		return predicate.Tag{Value: g.tag()}
	case 1:
		return g.tagContent()
	case 2:
		return predicate.ContentEquals{Value: g.text()}
	case 3:
		return predicate.ContentPrefix{Value: g.text()}
	case 4:
		return predicate.ContentSuffix{Value: g.text()}
	case 5:
		return predicate.ContentContains{Value: g.text()}
	case 6:
		lo := float64(1970 + g.r.Intn(40))
		if g.r.Intn(4) == 0 {
			lo = float64(g.r.Intn(100))
		}
		return predicate.NumericRange{Lo: lo, Hi: lo + float64(g.r.Intn(20))}
	case 7:
		return predicate.True{}
	}
	return startMod{mod: 2 + g.r.Intn(5), rem: g.r.Intn(2)}
}

func (g *predGen) pred(depth int) predicate.Predicate {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.r.Intn(7) {
	case 0:
		return g.and(depth)
	case 1:
		return predicate.Or{Parts: []predicate.Predicate{g.pred(depth - 1), g.pred(depth - 1)}}
	case 2:
		return predicate.Not{Inner: g.pred(depth - 1)}
	case 3:
		return g.named(g.pred(depth - 1))
	case 4:
		return g.tagged(depth)
	}
	return g.leaf()
}

// want is a catalog computed the brute-force way: Eval on every node,
// and no-overlap by looking for a satisfying proper ancestor.
type want struct {
	order   []string
	entries map[string]predicate.Entry
}

func bruteForce(tr *xmltree.Tree, preds []predicate.Predicate) want {
	w := want{entries: make(map[string]predicate.Entry)}
	in := make([]bool, len(tr.Nodes))
	for _, pred := range preds {
		clear(in)
		e := predicate.Entry{Pred: pred, NoOverlap: true}
		for id := xmltree.NodeID(1); int(id) < len(tr.Nodes); id++ {
			if pred.Eval(tr, id) {
				e.Nodes = append(e.Nodes, id)
				in[id] = true
			}
		}
		for _, id := range e.Nodes {
			for a := tr.Node(id).Parent; a != xmltree.InvalidNode; a = tr.Node(a).Parent {
				if in[a] {
					e.NoOverlap = false
				}
			}
		}
		if _, ok := w.entries[pred.Name()]; !ok {
			w.order = append(w.order, pred.Name())
		}
		w.entries[pred.Name()] = e
	}
	return w
}

func (w want) check(t *testing.T, how string, c *predicate.Catalog) {
	t.Helper()
	if !slices.Equal(c.Names(), w.order) {
		t.Fatalf("%s: registration order %q, want %q", how, c.Names(), w.order)
	}
	for _, name := range w.order {
		got, exp := c.MustGet(name), w.entries[name]
		if got.Pred.Name() != exp.Pred.Name() {
			t.Fatalf("%s: %s holds predicate %s", how, name, got.Pred.Name())
		}
		if !slices.Equal(got.Nodes, exp.Nodes) {
			t.Fatalf("%s: %s has %d nodes, want %d (%v, want %v)", how, name,
				len(got.Nodes), len(exp.Nodes), head(got.Nodes), head(exp.Nodes))
		}
		if got.NoOverlap != exp.NoOverlap {
			t.Fatalf("%s: %s NoOverlap %v, want %v", how, name, got.NoOverlap, exp.NoOverlap)
		}
	}
}

func head(ids []xmltree.NodeID) []xmltree.NodeID { return ids[:min(len(ids), 8)] }

// randomTree builds a document of about n nodes over a small vocabulary:
// mixed depths, repeated tags at every depth (so tags overlap
// themselves), attributes, and texts that include numbers.
func randomTree(r *rand.Rand, n int) *xmltree.Tree {
	tags := []string{"a", "b", "c", "year", "cite", "d"}
	words := []string{"conf/x", "journals/y", "1987", "1995", " 42 ", "abc", "zz", ""}
	b := xmltree.NewBuilder()
	b.Begin("root")
	for nodes := 1; nodes < n; {
		switch {
		case b.Depth() > 1 && (b.Depth() > 12 || r.Intn(2) == 0):
			b.End()
			continue
		case r.Intn(8) == 0:
			b.Attr(tags[r.Intn(len(tags))], words[r.Intn(len(words))])
		default:
			b.Begin(tags[r.Intn(len(tags))])
			b.Text(words[r.Intn(len(words))])
		}
		nodes++
	}
	return b.Tree()
}

func hierCollection(docs int) *xmltree.Tree {
	trees := make([]*xmltree.Tree, docs)
	for i := range trees {
		trees[i] = datagen.GenerateHier(datagen.HierConfig{Seed: int64(i) * 1000, Scale: 1})
	}
	return xmltree.Merge(trees...)
}

// TestCatalogMatchesBruteForce registers random predicate trees over
// DBLP, hier and random trees on both sides of the parallel threshold,
// and requires AddBatch, Add and Spec.Build to give the nodes,
// no-overlap flags and registration order of a brute-force Eval over
// every node.
func TestCatalogMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	trees := []struct {
		name  string
		tree  *xmltree.Tree
		large bool
	}{
		{"dblp-small", datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, Scale: 0.05}), false},
		{"dblp-large", datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, Scale: 0.5}), true},
		{"hier-small", hierCollection(1), false},
		{"hier-large", hierCollection(40), true},
		{"random-small", randomTree(r, 3000), false},
		{"random-large", randomTree(r, predicate.ParallelNodes+5000), true},
	}
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tree
			if large := len(tr.Nodes) >= predicate.ParallelNodes; large != tc.large {
				t.Fatalf("%d nodes: on the wrong side of the parallel threshold %d", len(tr.Nodes), predicate.ParallelNodes)
			}
			g := newPredGen(r, tr)
			var preds []predicate.Predicate
			for i := 0; i < 40; i++ {
				preds = append(preds, g.pred(3))
			}
			// Repeat a name: the later registration replaces the entry
			// and keeps the first one's place.
			preds = append(preds, preds[3], g.named(predicate.True{}))
			w := bruteForce(tr, preds)

			batch := predicate.NewCatalog(tr)
			if entries := batch.AddBatch(preds); len(entries) != len(preds) {
				t.Fatalf("AddBatch returned %d entries for %d predicates", len(entries), len(preds))
			}
			w.check(t, "AddBatch", batch)

			one := predicate.NewCatalog(tr)
			for _, p := range preds {
				one.Add(p)
			}
			w.check(t, "Add", one)

			w.check(t, "Spec.Build", predicate.Spec{Preds: preds}.Build(tr))

			var all []predicate.Predicate
			for _, tag := range tr.Tags() {
				all = append(all, predicate.Tag{Value: tag})
			}
			all = append(append(all, predicate.True{}), preds...)
			bruteForce(tr, all).check(t, "Spec.Build with AllTags", predicate.Spec{AllTags: true, Preds: preds}.Build(tr))
		})
	}
}
