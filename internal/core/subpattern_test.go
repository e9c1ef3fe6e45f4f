package core

import (
	"math"
	"math/rand"
	"testing"

	"xmlest/internal/histogram"
	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// buildLeaves constructs Leaf sub-patterns for two tags over a tree.
func buildLeaves(t *testing.T, tr *xmltree.Tree, g int, ancTag, descTag string) (SubPattern, SubPattern) {
	t.Helper()
	grid := histogram.MustUniformGrid(g, tr.MaxPos)
	trueHist := histogram.BuildTrue(tr, grid)
	mk := func(tag string) SubPattern {
		nodes := tr.NodesWithTag(tag)
		h := histogram.BuildPosition(tr, nodes, grid)
		noOv := predicateNoOverlap(tr, nodes)
		var cov *histogram.Coverage
		if noOv {
			var err error
			cov, err = histogram.BuildCoverage(tr, nodes, trueHist)
			if err != nil {
				t.Fatalf("coverage(%s): %v", tag, err)
			}
		}
		return Leaf(h, cov, noOv)
	}
	return mk(ancTag), mk(descTag)
}

func predicateNoOverlap(tr *xmltree.Tree, nodes []xmltree.NodeID) bool {
	var stack []int
	for _, id := range nodes {
		n := tr.Node(id)
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

func TestLeafJoinFactorIsOne(t *testing.T) {
	tr := xmltree.Fig1Document()
	anc, _ := buildLeaves(t, tr, 4, "faculty", "TA")
	g := anc.Est.Grid().Size()
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if anc.Hist.Count(i, j) > 0 && math.Abs(anc.jnFct(i, j)-1) > 1e-12 {
				t.Errorf("leaf join factor at (%d,%d) = %v, want 1", i, j, anc.jnFct(i, j))
			}
			if anc.Hist.Count(i, j) == 0 && anc.jnFct(i, j) != 0 {
				t.Errorf("join factor on empty cell (%d,%d) = %v, want 0", i, j, anc.jnFct(i, j))
			}
		}
	}
}

func TestJoinAncestorNoOverlapParticipationBounds(t *testing.T) {
	tr := xmltree.Fig1Document()
	anc, desc := buildLeaves(t, tr, 2, "faculty", "TA")
	if !anc.NoOverlap || anc.Cvg == nil {
		t.Fatalf("faculty should be no-overlap with coverage")
	}
	joined, err := JoinAncestor(anc, desc)
	if err != nil {
		t.Fatalf("JoinAncestor: %v", err)
	}
	// Participation can never exceed the base predicate count per cell.
	g := joined.Hist.Grid().Size()
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if joined.Hist.Count(i, j) > anc.Hist.Count(i, j)+1e-9 {
				t.Errorf("participation (%d,%d) = %v exceeds base %v",
					i, j, joined.Hist.Count(i, j), anc.Hist.Count(i, j))
			}
			if joined.Hist.Count(i, j) < 0 {
				t.Errorf("negative participation at (%d,%d)", i, j)
			}
		}
	}
	// The joined pattern keeps the ancestor anchor's no-overlap status
	// and propagates coverage.
	if !joined.NoOverlap || joined.Cvg == nil {
		t.Errorf("no-overlap status/coverage not propagated")
	}
	// Propagated coverage fractions stay within [0, 1].
	joined.Cvg.EachFrac(func(i, j, m, n int, f float64) {
		if f < -1e-9 || f > 1+1e-9 {
			t.Errorf("propagated coverage out of range: %v", f)
		}
	})
}

func TestJoinAncestorOverlapParticipationCapped(t *testing.T) {
	tr := xmltree.Fig1Document()
	anc, desc := buildLeaves(t, tr, 2, "department", "RA")
	// department is a single node: force the overlap path by dropping
	// coverage.
	anc.Cvg = nil
	anc.NoOverlap = false
	joined, err := JoinAncestor(anc, desc)
	if err != nil {
		t.Fatalf("JoinAncestor: %v", err)
	}
	// Fig 10 case 1 sets Hist = Est, but participation can never exceed
	// the single department node.
	if total := joined.Hist.Total(); total > 1+1e-9 {
		t.Errorf("participation total = %v, want <= 1 (one department node)", total)
	}
	if joined.Est.Total() <= 0 {
		t.Errorf("estimate must be positive (10 RAs under the department)")
	}
}

func TestJoinDescendantAnchorsAtDescendant(t *testing.T) {
	tr := xmltree.Fig1Document()
	anc, desc := buildLeaves(t, tr, 2, "faculty", "TA")
	joined, err := JoinDescendant(anc, desc)
	if err != nil {
		t.Fatalf("JoinDescendant: %v", err)
	}
	if joined.Base != desc.Base {
		t.Errorf("result should be anchored at the descendant")
	}
	if joined.NoOverlap != desc.NoOverlap {
		t.Errorf("anchor no-overlap status should follow the descendant")
	}
	real := float64(match.CountPairs(tr, tr.NodesWithTag("faculty"), tr.NodesWithTag("TA")))
	if math.Abs(joined.Total()-real) > 1.5 {
		t.Errorf("descendant-based no-overlap estimate %v too far from real %v", joined.Total(), real)
	}
}

// TestJoinBothBasesAgreeOnMagnitude checks that ancestor-based and
// descendant-based no-overlap estimates agree to within a small factor
// on realistic data (they use different formulas and need not match
// exactly).
func TestJoinBothBasesAgreeOnMagnitude(t *testing.T) {
	b := xmltree.NewBuilder()
	r := rand.New(rand.NewSource(17))
	b.Begin("db")
	for i := 0; i < 400; i++ {
		b.Begin("rec")
		for k, kn := 0, 1+r.Intn(4); k < kn; k++ {
			b.Element("f", "")
		}
		b.End()
	}
	b.End()
	tr := b.Tree()
	anc, desc := buildLeaves(t, tr, 10, "rec", "f")
	ab, err := JoinAncestor(anc, desc)
	if err != nil {
		t.Fatalf("JoinAncestor: %v", err)
	}
	db, err := JoinDescendant(anc, desc)
	if err != nil {
		t.Fatalf("JoinDescendant: %v", err)
	}
	if ab.Total() <= 0 || db.Total() <= 0 {
		t.Fatalf("degenerate totals: %v %v", ab.Total(), db.Total())
	}
	if ratio := ab.Total() / db.Total(); ratio < 0.5 || ratio > 2 {
		t.Errorf("bases disagree: ancestor-based %v vs descendant-based %v", ab.Total(), db.Total())
	}
}

func TestChainedJoinsPropagateParticipation(t *testing.T) {
	// a > b > c chain: joining (b,c) then (a, bc) must produce a
	// sensible estimate and participation never exceeding base counts.
	b := xmltree.NewBuilder()
	r := rand.New(rand.NewSource(23))
	// Record-shaped data: descendants dominate each record subtree, so
	// the published coverage formula's population-dilution stays small
	// (as in DBLP). Each a holds 1-2 b's, each b holds 5-10 c's.
	b.Begin("root")
	for i := 0; i < 200; i++ {
		b.Begin("a")
		for k, kn := 0, 1+r.Intn(2); k < kn; k++ {
			b.Begin("b")
			for l, ln := 0, 5+r.Intn(6); l < ln; l++ {
				b.Element("c", "")
			}
			b.End()
		}
		b.End()
	}
	b.End()
	tr := b.Tree()

	grid := histogram.MustUniformGrid(10, tr.MaxPos)
	trueHist := histogram.BuildTrue(tr, grid)
	mk := func(tag string) SubPattern {
		nodes := tr.NodesWithTag(tag)
		cov, err := histogram.BuildCoverage(tr, nodes, trueHist)
		if err != nil {
			t.Fatalf("coverage: %v", err)
		}
		return Leaf(histogram.BuildPosition(tr, nodes, grid), cov, true)
	}
	sa, sb, sc := mk("a"), mk("b"), mk("c")

	bc, err := JoinAncestor(sb, sc)
	if err != nil {
		t.Fatalf("join b,c: %v", err)
	}
	abc, err := JoinAncestor(sa, bc)
	if err != nil {
		t.Fatalf("join a,bc: %v", err)
	}

	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	resolve := func(name string) ([]xmltree.NodeID, error) {
		e, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
	real, err := match.CountTwig(tr, pattern.MustParse("//a//b//c"), resolve)
	if err != nil {
		t.Fatalf("CountTwig: %v", err)
	}
	if real == 0 {
		t.Skip("degenerate data")
	}
	if ratio := abc.Total() / real; ratio < 0.3 || ratio > 3 {
		t.Errorf("chained estimate %v vs real %v (ratio %v)", abc.Total(), real, ratio)
	}
	if abc.Hist.Total() > sa.Hist.Total()+1e-9 {
		t.Errorf("chained participation %v exceeds base a count %v", abc.Hist.Total(), sa.Hist.Total())
	}
}

func TestSubPatternValidateCatchesNaN(t *testing.T) {
	grid := histogram.MustUniformGrid(2, 10)
	h := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 1, Count: math.NaN()}})
	sp := SubPattern{Est: h, Hist: h, Base: h}
	if err := sp.validate(); err == nil {
		t.Errorf("validate should reject NaN")
	}
}

func TestJoinGridMismatch(t *testing.T) {
	a := Leaf(histogram.NewPosition(histogram.MustUniformGrid(4, 100), nil), nil, false)
	b := Leaf(histogram.NewPosition(histogram.MustUniformGrid(5, 100), nil), nil, false)
	if _, err := JoinAncestor(a, b); err == nil {
		t.Errorf("JoinAncestor grid mismatch: want error")
	}
	if _, err := JoinDescendant(a, b); err == nil {
		t.Errorf("JoinDescendant grid mismatch: want error")
	}
}
