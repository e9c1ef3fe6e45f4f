package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/xmltree"
)

func doc(t *testing.T, s string) *xmltree.Tree {
	t.Helper()
	tr, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tr
}

func TestTagPredicate(t *testing.T) {
	tr := xmltree.Fig1Document()
	c := NewCatalog(tr)
	e := c.Add(Tag{Value: "faculty"})
	if e.Count() != 3 {
		t.Errorf("faculty count = %d, want 3", e.Count())
	}
	if !e.NoOverlap {
		t.Errorf("faculty should be no-overlap in Fig 1")
	}
}

func TestContentPredicates(t *testing.T) {
	tr := doc(t, `<db>
		<cite>conf/vldb/Smith01</cite>
		<cite>journals/tods/Jones99</cite>
		<cite>conf/sigmod/Wu02</cite>
		<year>1995</year>
		<year>1985</year>
	</db>`)
	c := NewCatalog(tr)

	if got := c.Add(ContentPrefix{Value: "conf"}).Count(); got != 2 {
		t.Errorf("prefix conf count = %d, want 2", got)
	}
	if got := c.Add(ContentPrefix{Value: "journals"}).Count(); got != 1 {
		t.Errorf("prefix journals count = %d, want 1", got)
	}
	if got := c.Add(ContentSuffix{Value: "99"}).Count(); got != 1 {
		t.Errorf("suffix 99 count = %d, want 1", got)
	}
	if got := c.Add(ContentContains{Value: "sigmod"}).Count(); got != 1 {
		t.Errorf("contains sigmod count = %d, want 1", got)
	}
	if got := c.Add(ContentEquals{Value: "1995"}).Count(); got != 1 {
		t.Errorf("equals 1995 count = %d, want 1", got)
	}
	if got := c.Add(NumericRange{Lo: 1990, Hi: 1999}).Count(); got != 1 {
		t.Errorf("range 1990s count = %d, want 1", got)
	}
	if got := c.Add(TagContent{Tag: "year", Value: "1985"}).Count(); got != 1 {
		t.Errorf("year=1985 count = %d, want 1", got)
	}
}

func TestBooleanComposition(t *testing.T) {
	tr := doc(t, `<db><y>1990</y><y>1991</y><y>1980</y><t>1990</t></db>`)
	c := NewCatalog(tr)

	nineties := Or{Parts: []Predicate{
		TagContent{Tag: "y", Value: "1990"},
		TagContent{Tag: "y", Value: "1991"},
	}}
	if got := c.Add(nineties).Count(); got != 2 {
		t.Errorf("or count = %d, want 2", got)
	}
	both := And{Parts: []Predicate{Tag{Value: "y"}, ContentEquals{Value: "1990"}}}
	if got := c.Add(both).Count(); got != 1 {
		t.Errorf("and count = %d, want 1", got)
	}
	notY := And{Parts: []Predicate{Not{Inner: Tag{Value: "y"}}, ContentEquals{Value: "1990"}}}
	if got := c.Add(notY).Count(); got != 1 {
		t.Errorf("not count = %d, want 1 (only <t>)", got)
	}
}

func TestNamedPredicate(t *testing.T) {
	tr := doc(t, `<db><y>1990</y></db>`)
	c := NewCatalog(tr)
	p := Named{Alias: "1990's", Inner: ContentPrefix{Value: "199"}}
	c.Add(p)
	e, err := c.Get("1990's")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Count() != 1 {
		t.Errorf("named count = %d, want 1", e.Count())
	}
}

func TestTruePredicateCoversAllNodes(t *testing.T) {
	tr := xmltree.Fig1Document()
	c := NewCatalog(tr)
	if got := c.Add(True{}).Count(); got != tr.NumNodes() {
		t.Errorf("TRUE count = %d, want %d", got, tr.NumNodes())
	}
}

func TestNoOverlapDetection(t *testing.T) {
	// department nests nothing with the same tag; section nests section.
	tr := doc(t, `<root>
		<section><para/><section><para/></section></section>
		<chapter><para/></chapter>
	</root>`)
	c := NewCatalog(tr)
	if e := c.Add(Tag{Value: "section"}); e.NoOverlap {
		t.Errorf("section nests section: want overlap")
	}
	if e := c.Add(Tag{Value: "para"}); !e.NoOverlap {
		t.Errorf("para never nests: want no-overlap")
	}
	if e := c.Add(Tag{Value: "chapter"}); !e.NoOverlap {
		t.Errorf("chapter never nests: want no-overlap")
	}
	// A predicate matched by an ancestor and a descendant with different
	// tags must also be flagged as overlapping.
	if e := c.Add(Or{Parts: []Predicate{Tag{Value: "chapter"}, Tag{Value: "para"}}}); e.NoOverlap {
		t.Errorf("chapter-or-para overlaps (para under chapter)")
	}
}

// TestNoOverlapAgainstBruteForce cross-checks the O(n) stack detection
// against the quadratic definition on random trees.
func TestNoOverlapAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 2+r.Intn(50))
		c := NewCatalog(tr)
		for _, tag := range tr.Tags() {
			e := c.Add(Tag{Value: tag})
			brute := true
			for _, a := range e.Nodes {
				for _, d := range e.Nodes {
					if a != d && tr.IsAncestor(a, d) {
						brute = false
					}
				}
			}
			if e.NoOverlap != brute {
				t.Logf("tag %s: fast=%v brute=%v", tag, e.NoOverlap, brute)
				return false
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func randomTree(r *rand.Rand, n int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	tags := []string{"a", "b", "c"}
	open := 0
	for i := 0; i < n; i++ {
		if open > 0 && r.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin(tags[r.Intn(len(tags))])
		open++
	}
	return b.Tree()
}

func TestCatalogGetMissing(t *testing.T) {
	c := NewCatalog(xmltree.Fig1Document())
	if _, err := c.Get("nope"); err == nil {
		t.Errorf("Get missing: want error")
	}
}

func TestCatalogAddAllTags(t *testing.T) {
	tr := xmltree.Fig1Document()
	c := NewCatalog(tr)
	n := c.AddAllTags()
	if n != 9 {
		t.Errorf("AddAllTags = %d, want 9", n)
	}
	if !c.Has("tag=TA") || !c.Has("tag=faculty") {
		t.Errorf("expected tag=TA and tag=faculty registered; names=%v", c.Names())
	}
	if c.Len() != 9 {
		t.Errorf("Len = %d, want 9", c.Len())
	}
}

func TestEntriesSorted(t *testing.T) {
	tr := xmltree.Fig1Document()
	c := NewCatalog(tr)
	c.AddAllTags()
	for _, name := range c.Names() {
		e := c.MustGet(name)
		if !Sorted(tr, e.Nodes) {
			t.Errorf("entry %s not sorted by start", name)
		}
	}
}
