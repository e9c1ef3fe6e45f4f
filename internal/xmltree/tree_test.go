package xmltree

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func readerSlice(docs ...string) []io.Reader {
	rs := make([]io.Reader, len(docs))
	for i, d := range docs {
		rs[i] = strings.NewReader(d)
	}
	return rs
}

func TestBuilderSimple(t *testing.T) {
	b := NewBuilder()
	b.Begin("a")
	b.Begin("b")
	b.Text("hello")
	b.End()
	b.Element("c", "world")
	b.End()
	tr := b.Tree()

	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3", got)
	}
	a := tr.NodesWithTag("a")
	if len(a) != 1 {
		t.Fatalf("NodesWithTag(a) = %v, want one node", a)
	}
	bs := tr.NodesWithTag("b")
	cs := tr.NodesWithTag("c")
	if len(bs) != 1 || len(cs) != 1 {
		t.Fatalf("tag index wrong: b=%v c=%v", bs, cs)
	}
	if tr.Node(bs[0]).Text != "hello" || tr.Node(cs[0]).Text != "world" {
		t.Errorf("text content wrong: %q %q", tr.Node(bs[0]).Text, tr.Node(cs[0]).Text)
	}
	if !tr.IsAncestor(a[0], bs[0]) || !tr.IsAncestor(a[0], cs[0]) {
		t.Errorf("a should be ancestor of b and c")
	}
	if tr.IsAncestor(bs[0], cs[0]) || tr.IsAncestor(cs[0], bs[0]) {
		t.Errorf("siblings must not be ancestors of each other")
	}
	if !tr.IsAncestor(tr.Root(), a[0]) {
		t.Errorf("dummy root should be ancestor of document root")
	}
}

func TestBuilderIntervalNesting(t *testing.T) {
	b := NewBuilder()
	b.Begin("r")
	b.Begin("x")
	b.Begin("y")
	b.End()
	b.End()
	b.Begin("z")
	b.End()
	b.End()
	tr := b.Tree()

	r := tr.NodesWithTag("r")[0]
	x := tr.NodesWithTag("x")[0]
	y := tr.NodesWithTag("y")[0]
	z := tr.NodesWithTag("z")[0]
	nr, nx, ny, nz := tr.Node(r), tr.Node(x), tr.Node(y), tr.Node(z)

	if !(nr.Start < nx.Start && nx.Start < ny.Start && ny.End < nx.End && nx.End < nr.End) {
		t.Errorf("nesting violated: r=[%d,%d] x=[%d,%d] y=[%d,%d]",
			nr.Start, nr.End, nx.Start, nx.End, ny.Start, ny.End)
	}
	if !(nx.End < nz.Start) {
		t.Errorf("sibling intervals must be disjoint: x=[%d,%d] z=[%d,%d]",
			nx.Start, nx.End, nz.Start, nz.End)
	}
	if nz.Depth != 2 || ny.Depth != 3 {
		t.Errorf("depths wrong: z=%d (want 2) y=%d (want 3)", nz.Depth, ny.Depth)
	}
}

func TestBuilderEndPanicsAtTopLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("End at top level should panic")
		}
	}()
	NewBuilder().End()
}

func TestBuilderAutoClosesOnTree(t *testing.T) {
	b := NewBuilder()
	b.Begin("a")
	b.Begin("b")
	tr := b.Tree() // both left open
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after auto-close: %v", err)
	}
	if tr.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", tr.NumNodes())
	}
}

func TestParseSimpleDocument(t *testing.T) {
	tr, err := ParseString(`<doc><a id="1">x<b>y</b>z</a><a>w</a></doc>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(tr.NodesWithTag("a")); got != 2 {
		t.Errorf("a count = %d, want 2", got)
	}
	if got := len(tr.NodesWithTag("@id")); got != 1 {
		t.Errorf("@id count = %d, want 1", got)
	}
	a0 := tr.Node(tr.NodesWithTag("a")[0])
	if !strings.Contains(a0.Text, "x") || !strings.Contains(a0.Text, "z") {
		t.Errorf("mixed content text = %q, want to contain x and z", a0.Text)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		`<a><b></a></b>`,
		`<a>`,
		`</a>`,
		`<a><b></b>`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): want error, got nil", c)
		}
	}
}

func TestParseCollectionMergesDocuments(t *testing.T) {
	tr, err := ParseCollection(
		readerSlice(`<a><b/></a>`, `<a><c/></a>`),
		DefaultParseOptions,
	)
	if err != nil {
		t.Fatalf("ParseCollection: %v", err)
	}
	as := tr.NodesWithTag("a")
	if len(as) != 2 {
		t.Fatalf("a count = %d, want 2", len(as))
	}
	// Documents must be siblings under the dummy root with disjoint intervals.
	if tr.Node(as[0]).Parent != tr.Root() || tr.Node(as[1]).Parent != tr.Root() {
		t.Errorf("document roots must hang off the dummy root")
	}
	if tr.Node(as[0]).End >= tr.Node(as[1]).Start {
		t.Errorf("documents must occupy disjoint intervals")
	}
}

func TestFig1Document(t *testing.T) {
	tr := Fig1Document()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	counts := map[string]int{
		"department": 1, "faculty": 3, "staff": 1, "lecturer": 1,
		"research_scientist": 1, "TA": 5, "RA": 10, "name": 6, "secretary": 3,
	}
	for tag, want := range counts {
		if got := len(tr.NodesWithTag(tag)); got != want {
			t.Errorf("%s count = %d, want %d", tag, got, want)
		}
	}
	// Real answer size of faculty//TA is 2 (paper, Section 2).
	pairs := 0
	for _, f := range tr.NodesWithTag("faculty") {
		for _, ta := range tr.NodesWithTag("TA") {
			if tr.IsAncestor(f, ta) {
				pairs++
			}
		}
	}
	if pairs != 2 {
		t.Errorf("faculty//TA real answer size = %d, want 2", pairs)
	}
}

func TestDescendantsContiguous(t *testing.T) {
	tr := Fig1Document()
	dept := tr.NodesWithTag("department")[0]
	desc := tr.Descendants(dept)
	if len(desc) != tr.NumNodes()-1 {
		t.Fatalf("department descendants = %d, want %d", len(desc), tr.NumNodes()-1)
	}
	for _, d := range desc {
		if !tr.IsAncestor(dept, d) {
			t.Errorf("Descendants returned non-descendant %d", d)
		}
	}
}

func TestChildrenOrder(t *testing.T) {
	tr := Fig1Document()
	dept := tr.NodesWithTag("department")[0]
	kids := tr.Children(dept)
	wantTags := []string{"faculty", "staff", "faculty", "lecturer", "faculty", "research_scientist"}
	if len(kids) != len(wantTags) {
		t.Fatalf("children = %d, want %d", len(kids), len(wantTags))
	}
	for i, k := range kids {
		if tr.Node(k).Tag != wantTags[i] {
			t.Errorf("child %d tag = %s, want %s", i, tr.Node(k).Tag, wantTags[i])
		}
	}
}

// randomTree builds a random tree with n nodes using the given source,
// exercising arbitrary shapes for property tests.
func randomTree(r *rand.Rand, n int) *Tree {
	b := NewBuilder()
	tags := []string{"a", "b", "c", "d"}
	open := 0
	for i := 0; i < n; i++ {
		switch {
		case open == 0:
			b.Begin(tags[r.Intn(len(tags))])
			open++
		case r.Intn(3) == 0:
			b.End()
			open--
			i-- // End does not consume a node budget
		default:
			b.Begin(tags[r.Intn(len(tags))])
			open++
		}
	}
	return b.Tree()
}

// TestPropertyIntervalInvariants checks, on random trees, that interval
// containment exactly coincides with tree ancestorship, and that any two
// intervals either nest or are disjoint (the precondition for Lemma 1).
func TestPropertyIntervalInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 2+r.Intn(60))
		if err := tr.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		for i := 0; i < len(tr.Nodes); i++ {
			for j := 0; j < len(tr.Nodes); j++ {
				if i == j {
					continue
				}
				a, d := NodeID(i), NodeID(j)
				byInterval := tr.IsAncestor(a, d)
				byWalk := false
				for p := tr.Nodes[d].Parent; p != InvalidNode; p = tr.Nodes[p].Parent {
					if p == a {
						byWalk = true
						break
					}
				}
				if byInterval != byWalk {
					t.Logf("node %d anc of %d: interval=%v walk=%v", i, j, byInterval, byWalk)
					return false
				}
				ni, nj := tr.Nodes[i], tr.Nodes[j]
				nested := (ni.Start < nj.Start && nj.End < ni.End) || (nj.Start < ni.Start && ni.End < nj.End)
				disjoint := ni.End < nj.Start || nj.End < ni.Start
				if !nested && !disjoint {
					t.Logf("intervals partially overlap: [%d,%d] [%d,%d]", ni.Start, ni.End, nj.Start, nj.End)
					return false
				}
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func TestStats(t *testing.T) {
	tr := Fig1Document()
	s := tr.Stats()
	if s.Nodes != tr.NumNodes() {
		t.Errorf("Stats.Nodes = %d, want %d", s.Nodes, tr.NumNodes())
	}
	if s.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d, want 3 (department/person/leaf)", s.MaxDepth)
	}
	if s.DistinctTag != 9 {
		t.Errorf("DistinctTag = %d, want 9", s.DistinctTag)
	}
}

// TestValidateRejectsCorruption corrupts one field of a valid tree per
// case; Validate must return an error for each, and never panic.
func TestValidateRejectsCorruption(t *testing.T) {
	const doc = `<r><a><x/></a><b/><c/></r>`
	// ids: 1 r, 2 a, 3 x, 4 b, 5 c
	cases := []struct {
		name    string
		corrupt func(nodes []Node)
	}{
		// Every interval, parent and depth still holds; only the
		// sibling link shows that b would overlap a.
		{"overlapping siblings reachable only through NextSibling", func(n []Node) { n[4].NextSibling = 2 }},
		{"next sibling inside the node", func(n []Node) { n[2].NextSibling = 3 }},
		{"out-of-range NextSibling", func(n []Node) { n[4].NextSibling = 99 }},
		{"negative NextSibling", func(n []Node) { n[2].NextSibling = -7 }},
		{"out-of-range FirstChild", func(n []Node) { n[2].FirstChild = 99 }},
		{"out-of-range Parent", func(n []Node) { n[3].Parent = 99 }},
		{"child outside its parent", func(n []Node) { n[5].Parent = 2 }},
		{"wrong depth", func(n []Node) { n[3].Depth = 5 }},
		{"non-increasing start", func(n []Node) { n[4].Start = n[3].Start }},
		{"start not before end", func(n []Node) { n[5].End = n[5].Start }},
		{"end out of range", func(n []Node) { n[0].End = 1 << 20 }},
		{"root with a parent", func(n []Node) { n[0].Parent = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ParseString(doc)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Validate panicked: %v", p)
				}
			}()
			c.corrupt(tr.Nodes)
			if err := tr.Validate(); err == nil {
				t.Errorf("Validate accepted the corrupted tree")
			}
		})
	}
}
