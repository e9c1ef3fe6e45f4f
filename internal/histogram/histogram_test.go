package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

func TestUniformGrid(t *testing.T) {
	g, err := NewUniformGrid(10, 100)
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	if g.Size() != 10 || g.MaxPos() != 100 {
		t.Fatalf("size=%d maxPos=%d", g.Size(), g.MaxPos())
	}
	for pos := 0; pos < 100; pos++ {
		b := g.Bucket(pos)
		if pos < g.Lo(b) || pos >= g.Hi(b) {
			t.Fatalf("pos %d mapped to bucket %d [%d,%d)", pos, b, g.Lo(b), g.Hi(b))
		}
	}
}

func TestUniformGridUnevenWidths(t *testing.T) {
	g, err := NewUniformGrid(3, 10)
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	// Bounds 0,3,6,10: widths differ by at most 1... (3,3,4).
	want := []int{0, 3, 6, 10}
	for i, b := range g.Bounds() {
		if b != want[i] {
			t.Errorf("bounds[%d] = %d, want %d", i, b, want[i])
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewUniformGrid(0, 10); err == nil {
		t.Errorf("grid size 0: want error")
	}
	if _, err := NewUniformGrid(10, 5); err == nil {
		t.Errorf("maxPos < g: want error")
	}
}

func TestEquiDepthGrid(t *testing.T) {
	// Cluster positions near 0: equi-depth bounds should be denser there.
	positions := make([]int, 0, 100)
	for i := 0; i < 90; i++ {
		positions = append(positions, i%30)
	}
	for i := 0; i < 10; i++ {
		positions = append(positions, 900+i)
	}
	g, err := NewEquiDepthGrid(5, positions, 1000)
	if err != nil {
		t.Fatalf("NewEquiDepthGrid: %v", err)
	}
	if g.Size() != 5 {
		t.Fatalf("size = %d, want 5", g.Size())
	}
	if g.Bounds()[1] > 100 {
		t.Errorf("first boundary %d should be inside the dense cluster", g.Bounds()[1])
	}
	for pos := 0; pos < 1000; pos += 7 {
		b := g.Bucket(pos)
		if pos < g.Lo(b) || pos >= g.Hi(b) {
			t.Fatalf("pos %d mapped to bucket %d [%d,%d)", pos, b, g.Lo(b), g.Hi(b))
		}
	}
}

func TestEquiDepthGridDegenerate(t *testing.T) {
	// All samples identical: must still produce a valid grid.
	g, err := NewEquiDepthGrid(4, []int{5, 5, 5, 5, 5}, 100)
	if err != nil {
		t.Fatalf("NewEquiDepthGrid: %v", err)
	}
	if g.MaxPos() != 100 {
		t.Errorf("MaxPos = %d, want 100", g.MaxPos())
	}
}

func fig1Setup(t *testing.T, gsize int) (*xmltree.Tree, *predicate.Catalog, Grid) {
	t.Helper()
	tr := xmltree.Fig1Document()
	c := predicate.NewCatalog(tr)
	c.AddAllTags()
	grid, err := NewUniformGrid(gsize, tr.MaxPos)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return tr, c, grid
}

func TestBuildPositionTotals(t *testing.T) {
	tr, c, grid := fig1Setup(t, 4)
	for _, name := range c.Names() {
		e := c.MustGet(name)
		h := BuildPosition(tr, e.Nodes, grid)
		if h.Total() != float64(e.Count()) {
			t.Errorf("%s: total = %v, want %d", name, h.Total(), e.Count())
		}
	}
	trueHist := BuildTrue(tr, grid)
	if trueHist.Total() != float64(tr.NumNodes()) {
		t.Errorf("TRUE total = %v, want %d", trueHist.Total(), tr.NumNodes())
	}
}

func TestUpperTriangleOnly(t *testing.T) {
	tr, c, grid := fig1Setup(t, 5)
	h := BuildPosition(tr, c.MustGet("tag=RA").Nodes, grid)
	for i := 0; i < 5; i++ {
		for j := 0; j < i; j++ {
			if h.Count(i, j) != 0 {
				t.Errorf("cell (%d,%d) below diagonal non-zero", i, j)
			}
		}
	}
}

// checkLemma1 verifies Lemma 1 on a built histogram: no two non-zero
// cells a and b may satisfy a.I < b.I < a.J < b.J, for a node starting
// strictly inside another node's span but ending beyond it would
// partially overlap it. Estimated histograms need not satisfy the
// lemma; built ones must. It compares every pair of non-zero cells,
// O(nnz²), and returns an error naming the first violation.
func checkLemma1(h *Position) error {
	for _, a := range h.cells {
		for _, b := range h.cells {
			if a.I < b.I && b.I < a.J && a.J < b.J {
				return fmt.Errorf("histogram: lemma 1 violated: (%d,%d) and (%d,%d) both non-zero", a.I, a.J, b.I, b.J)
			}
		}
	}
	return nil
}

func TestCheckLemma1OnBuiltHistograms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 3+r.Intn(80))
		grid, err := NewUniformGrid(1+r.Intn(8), tr.MaxPos)
		if err != nil {
			return true // tiny tree, smaller than grid; skip
		}
		for _, tag := range tr.Tags() {
			h := BuildPosition(tr, tr.NodesWithTag(tag), grid)
			if err := checkLemma1(h); err != nil {
				t.Logf("tag %s: %v", tag, err)
				return false
			}
		}
		if err := checkLemma1(BuildTrue(tr, grid)); err != nil {
			t.Logf("TRUE: %v", err)
			return false
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

// TestCheckLemma1Table covers the pairwise check directly: a violation
// is a.I < b.I < a.J < b.J, seen from either cell — a partner starting
// inside the cell and ending beyond it, or one starting before it and
// ending inside it.
func TestCheckLemma1Table(t *testing.T) {
	grid := MustUniformGrid(6, 60)
	for _, tc := range []struct {
		name  string
		cells []Cell
		ok    bool
	}{
		{"empty", nil, true},
		{"nested", []Cell{{0, 5, 1}, {1, 3, 2}, {2, 2, 4}}, true},
		{"disjoint", []Cell{{0, 1, 1}, {2, 4, 1}}, true},
		{"shared end bucket", []Cell{{0, 3, 1}, {2, 3, 1}}, true},
		{"shared start bucket", []Cell{{1, 2, 1}, {1, 4, 1}}, true},
		{"(0,3) has a partner ending beyond it", []Cell{{0, 3, 1}, {2, 5, 1}, {5, 5, 1}}, false},
		{"(3,5) has a partner starting before it", []Cell{{0, 0, 1}, {1, 4, 1}, {3, 5, 1}}, false},
	} {
		err := checkLemma1(NewPosition(grid, tc.cells))
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkLemma1 = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func randomTree(r *rand.Rand, n int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	tags := []string{"a", "b", "c", "d"}
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

func TestPositionScaled(t *testing.T) {
	tr, c, grid := fig1Setup(t, 4)
	h := BuildPosition(tr, c.MustGet("tag=TA").Nodes, grid)
	sc := h.Scaled(2)
	if sc.Total() != 2*h.Total() {
		t.Errorf("scaled: total = %v, want %v", sc.Total(), 2*h.Total())
	}
	if h.Total() != 5 {
		t.Errorf("Scaled changed the original: %v", h.Total())
	}
	for _, cell := range h.NonZeroCells() {
		if got := sc.Count(cell.I, cell.J); got != 2*cell.Count {
			t.Errorf("scaled cell (%d,%d) = %v, want %v", cell.I, cell.J, got, 2*cell.Count)
		}
	}
	if z := h.Scaled(0); z.NonZero() != 0 || z.Total() != 0 {
		t.Errorf("scaled to zero: %d cells, total %v", z.NonZero(), z.Total())
	}
}

func TestNonZeroAndEachNonZero(t *testing.T) {
	tr, c, grid := fig1Setup(t, 6)
	h := BuildPosition(tr, c.MustGet("tag=faculty").Nodes, grid)
	seen := 0
	var sum float64
	h.EachNonZero(func(i, j int, cnt float64) {
		seen++
		sum += cnt
		if cnt == 0 {
			t.Errorf("EachNonZero visited zero cell (%d,%d)", i, j)
		}
	})
	if seen != h.NonZero() {
		t.Errorf("EachNonZero visited %d cells, NonZero() = %d", seen, h.NonZero())
	}
	if sum != h.Total() {
		t.Errorf("EachNonZero sum = %v, total = %v", sum, h.Total())
	}
}

func TestMarshalRoundTripIntegral(t *testing.T) {
	tr, c, grid := fig1Setup(t, 8)
	for _, name := range []string{"tag=faculty", "tag=TA", "tag=RA"} {
		h := BuildPosition(tr, c.MustGet(name).Nodes, grid)
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := UnmarshalPosition(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !got.Grid().Equal(h.Grid()) {
			t.Errorf("%s: grid mismatch", name)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if got.Count(i, j) != h.Count(i, j) {
					t.Errorf("%s: cell (%d,%d) = %v, want %v", name, i, j, got.Count(i, j), h.Count(i, j))
				}
			}
		}
	}
}

func TestMarshalRoundTripFractional(t *testing.T) {
	grid := MustUniformGrid(4, 100)
	h := NewPosition(grid, []Cell{{0, 3, 1.25}, {1, 2, 0.6}})
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalPosition(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Count(0, 3) != 1.25 || got.Count(1, 2) != 0.6 {
		t.Errorf("fractional round trip lost values: %v %v", got.Count(0, 3), got.Count(1, 2))
	}
}

func TestMarshalRoundTripNonUniformGrid(t *testing.T) {
	g, err := NewEquiDepthGrid(4, []int{1, 2, 3, 50, 51, 52, 90}, 100)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	h := NewPosition(g, []Cell{{0, 2, 5}})
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalPosition(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !got.Grid().Equal(g) {
		t.Errorf("non-uniform grid not preserved: %v vs %v", got.Grid().Bounds(), g.Bounds())
	}
	if got.Count(0, 2) != 5 {
		t.Errorf("count lost")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'X', 1, 2, 3},
		{'P'},
		{'P', 1},
		{'P', 1, 200}, // truncated uvarint chain
	}
	for _, c := range cases {
		if _, err := UnmarshalPosition(c); err == nil {
			t.Errorf("UnmarshalPosition(%v): want error", c)
		}
	}
}

func TestTheorem1LinearNonZeroCells(t *testing.T) {
	// Build a sizable random tree and check that non-zero cells grow
	// roughly linearly in g, far below g².
	r := rand.New(rand.NewSource(42))
	tr := randomTree(r, 20000)
	nodes := tr.NodesWithTag("a")
	if len(nodes) < 1000 {
		t.Fatalf("random tree too small: %d 'a' nodes", len(nodes))
	}
	for _, g := range []int{10, 20, 40, 80} {
		grid := MustUniformGrid(g, tr.MaxPos)
		h := BuildPosition(tr, nodes, grid)
		nz := h.NonZero()
		// Theorem 1: O(g). Allow a generous constant (4g), but verify it
		// is far below the quadratic bound.
		if nz > 4*g {
			t.Errorf("g=%d: non-zero cells = %d > 4g", g, nz)
		}
	}
}

func TestCoverageFractions(t *testing.T) {
	tr := xmltree.Fig1Document()
	c := predicate.NewCatalog(tr)
	fac := c.Add(predicate.Tag{Value: "faculty"})
	if !fac.NoOverlap {
		t.Fatalf("faculty must be no-overlap")
	}
	grid := MustUniformGrid(2, tr.MaxPos)
	trueHist := BuildTrue(tr, grid)
	cov, err := BuildCoverage(tr, fac.Nodes, trueHist)
	if err != nil {
		t.Fatalf("BuildCoverage: %v", err)
	}
	total := 0.0
	cov.EachFrac(func(i, j, m, n int, f float64) {
		if f <= 0 || f > 1 {
			t.Errorf("fraction out of range: Cvg[%d][%d][%d][%d] = %v", i, j, m, n, f)
		}
		total += f * trueHist.Count(i, j)
	})
	// The sum of fraction*population over all cells equals the number of
	// nodes with a faculty ancestor. Count directly for cross-check.
	want := 0.0
	for id := xmltree.NodeID(1); int(id) < len(tr.Nodes); id++ {
		for _, f := range fac.Nodes {
			if tr.IsAncestor(f, id) {
				want++
				break
			}
		}
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("covered node mass = %v, want %v", total, want)
	}
	for i := 0; i < 2; i++ {
		for j := i; j < 2; j++ {
			if cf := coveredFrac(cov, i, j); cf < -1e-9 || cf > 1+1e-9 {
				t.Errorf("CoveredFrac(%d,%d) = %v outside [0,1]", i, j, cf)
			}
		}
	}
}

func TestCoverageRejectsOverlappingPredicate(t *testing.T) {
	tr, err := xmltree.ParseString(`<r><s><s/></s></r>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	grid := MustUniformGrid(2, tr.MaxPos)
	trueHist := BuildTrue(tr, grid)
	if _, err := BuildCoverage(tr, tr.NodesWithTag("s"), trueHist); err == nil {
		t.Errorf("BuildCoverage on nested predicate: want error")
	}
}

func TestTheorem2LinearPartialCoverage(t *testing.T) {
	// Generate a wide tree of non-nesting sections each with children;
	// partial-coverage cells should grow O(g).
	b := xmltree.NewBuilder()
	r := rand.New(rand.NewSource(7))
	b.Begin("root")
	for i := 0; i < 3000; i++ {
		b.Begin("sec")
		for k, kn := 0, 1+r.Intn(4); k < kn; k++ {
			b.Element("item", "")
		}
		b.End()
	}
	b.End()
	tr := b.Tree()
	for _, g := range []int{10, 20, 40} {
		grid := MustUniformGrid(g, tr.MaxPos)
		trueHist := BuildTrue(tr, grid)
		cov, err := BuildCoverage(tr, tr.NodesWithTag("sec"), trueHist)
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if pc := cov.PartialCells(); pc > 6*g {
			t.Errorf("g=%d: partial cells = %d > 6g", g, pc)
		}
	}
}

func TestSynthesizeAndOrNot(t *testing.T) {
	tr, err := xmltree.ParseString(`<db>
		<y>1990</y><y>1991</y><y>1980</y><y>1990</y><t>x</t>
	</db>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := predicate.NewCatalog(tr)
	grid := MustUniformGrid(3, tr.MaxPos)
	trueHist := BuildTrue(tr, grid)

	hTag := BuildPosition(tr, c.Add(predicate.Tag{Value: "y"}).Nodes, grid)
	hTxt := BuildPosition(tr, c.Add(predicate.ContentEquals{Value: "1990"}).Nodes, grid)

	and, err := SynthesizeAnd(trueHist, hTag, hTxt)
	if err != nil {
		t.Fatalf("SynthesizeAnd: %v", err)
	}
	// Exact intersection count is 2; independence within cells may move
	// it, but the estimate must stay within [0, min(totals)].
	if and.Total() < 0 || and.Total() > math.Min(hTag.Total(), hTxt.Total())+1e-9 {
		t.Errorf("AND estimate %v outside [0, min] bound", and.Total())
	}

	or, err := SynthesizeOr(trueHist, hTag, hTxt)
	if err != nil {
		t.Fatalf("SynthesizeOr: %v", err)
	}
	if or.Total() < math.Max(hTag.Total(), hTxt.Total())-1e-9 || or.Total() > hTag.Total()+hTxt.Total()+1e-9 {
		t.Errorf("OR estimate %v outside [max, sum] bounds", or.Total())
	}

	not, err := SynthesizeNot(trueHist, hTag)
	if err != nil {
		t.Fatalf("SynthesizeNot: %v", err)
	}
	if math.Abs(not.Total()-(trueHist.Total()-hTag.Total())) > 1e-9 {
		t.Errorf("NOT estimate %v, want %v", not.Total(), trueHist.Total()-hTag.Total())
	}
}

func TestSumExactForDisjoint(t *testing.T) {
	tr, err := xmltree.ParseString(`<db><y>1990</y><y>1991</y><y>1990</y></db>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := predicate.NewCatalog(tr)
	grid := MustUniformGrid(2, tr.MaxPos)
	h90 := BuildPosition(tr, c.Add(predicate.ContentEquals{Value: "1990"}).Nodes, grid)
	h91 := BuildPosition(tr, c.Add(predicate.ContentEquals{Value: "1991"}).Nodes, grid)
	sum, err := Sum(h90, h91)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	if sum.Total() != 3 {
		t.Errorf("Sum total = %v, want 3", sum.Total())
	}
}

func TestSynthesizeGridMismatch(t *testing.T) {
	a := NewPosition(MustUniformGrid(4, 100), nil)
	b := NewPosition(MustUniformGrid(5, 100), nil)
	if _, err := SynthesizeAnd(a, b); err == nil {
		t.Errorf("grid mismatch: want error")
	}
	if _, err := Sum(a, b); err == nil {
		t.Errorf("Sum grid mismatch: want error")
	}
}

func TestStorageBytesGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := randomTree(r, 5000)
	nodes := tr.NodesWithTag("a")
	prev := 0
	for _, g := range []int{5, 10, 20, 40} {
		h := BuildPosition(tr, nodes, MustUniformGrid(g, tr.MaxPos))
		sb := h.StorageBytes()
		if sb <= 0 {
			t.Fatalf("g=%d: storage %d", g, sb)
		}
		if sb < prev/2 {
			t.Errorf("storage should not collapse as g grows: g=%d sb=%d prev=%d", g, sb, prev)
		}
		prev = sb
	}
}
