package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/histogram"
	"xmlest/internal/xmltree"
)

// bruteAncestorTotal computes the ancestor-based Fig 6 estimate with
// explicit region loops — the specification the fast partial-sum and
// three-pass implementations must match exactly.
func bruteAncestorTotal(ha, hb *histogram.Position) float64 {
	g := ha.Grid().Size()
	var total float64
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			a := ha.Count(i, j)
			if a == 0 {
				continue
			}
			if i == j {
				total += a * hb.Count(i, i) / 12
				continue
			}
			var coef float64
			// Strictly inside the span.
			for k := i + 1; k <= j; k++ {
				for l := k; l <= j-1; l++ {
					coef += hb.Count(k, l)
				}
			}
			// Same start column, below; diagonal corner at 1/2.
			for l := i; l <= j-1; l++ {
				w := 1.0
				if l == i {
					w = 0.5
				}
				coef += w * hb.Count(i, l)
			}
			// Same end row, right; diagonal corner at 1/2.
			for k := i + 1; k <= j; k++ {
				w := 1.0
				if k == j {
					w = 0.5
				}
				coef += w * hb.Count(k, j)
			}
			coef += hb.Count(i, j) / 4
			total += a * coef
		}
	}
	return total
}

// bruteDescendantTotal mirrors the descendant-based Fig 6 formula.
func bruteDescendantTotal(ha, hb *histogram.Position) float64 {
	g := ha.Grid().Size()
	var total float64
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			d := hb.Count(i, j)
			if d == 0 {
				continue
			}
			var coef float64
			for k := 0; k <= i-1; k++ { // G: strictly up-left, and H: same row left
				for l := j; l < g; l++ {
					coef += ha.Count(k, l)
				}
			}
			for l := j + 1; l < g; l++ { // F: same column, above
				coef += ha.Count(i, l)
			}
			selfW := 0.25
			if i == j {
				selfW = 1.0 / 12
			}
			coef += selfW * ha.Count(i, j)
			total += d * coef
		}
	}
	return total
}

func randomHistPair(r *rand.Rand) (*histogram.Position, *histogram.Position) {
	tr := randomTree(r, 10+r.Intn(300))
	g := 1 + r.Intn(12)
	if g > tr.MaxPos {
		g = tr.MaxPos
	}
	grid := histogram.MustUniformGrid(g, tr.MaxPos)
	tags := tr.Tags()
	ha := histogram.BuildPosition(tr, tr.NodesWithTag(tags[r.Intn(len(tags))]), grid)
	hb := histogram.BuildPosition(tr, tr.NodesWithTag(tags[r.Intn(len(tags))]), grid)
	return ha, hb
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

func TestAncestorBasedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ha, hb := randomHistPair(r)
		est, err := EstimateAncestorBased(ha, hb)
		if err != nil {
			t.Logf("estimate: %v", err)
			return false
		}
		want := bruteAncestorTotal(ha, hb)
		if math.Abs(est.Total()-want) > 1e-6*(1+math.Abs(want)) {
			t.Logf("seed %d: fast=%v brute=%v", seed, est.Total(), want)
			return false
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func TestPHJoinMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ha, hb := randomHistPair(r)
		got, err := PHJoin(ha, hb)
		if err != nil {
			t.Logf("PHJoin: %v", err)
			return false
		}
		want := bruteAncestorTotal(ha, hb)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Logf("seed %d: phjoin=%v brute=%v", seed, got, want)
			return false
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func TestDescendantBasedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ha, hb := randomHistPair(r)
		est, err := EstimateDescendantBased(ha, hb)
		if err != nil {
			t.Logf("estimate: %v", err)
			return false
		}
		want := bruteDescendantTotal(ha, hb)
		if math.Abs(est.Total()-want) > 1e-6*(1+math.Abs(want)) {
			t.Logf("seed %d: fast=%v brute=%v", seed, est.Total(), want)
			return false
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func TestAncestorCoefficientsPrecomputation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ha, hb := randomHistPair(r)
	coef := AncestorCoefficients(hb)
	var viaCoef float64
	ha.EachNonZero(func(i, j int, c float64) {
		viaCoef += c * coef.Count(i, j)
	})
	direct, err := PHJoin(ha, hb)
	if err != nil {
		t.Fatalf("PHJoin: %v", err)
	}
	if math.Abs(viaCoef-direct) > 1e-9*(1+math.Abs(direct)) {
		t.Errorf("precomputed coefficients give %v, direct %v", viaCoef, direct)
	}
}

func TestGridMismatchErrors(t *testing.T) {
	a := histogram.NewPosition(histogram.MustUniformGrid(4, 100), nil)
	b := histogram.NewPosition(histogram.MustUniformGrid(5, 100), nil)
	if _, err := EstimateAncestorBased(a, b); err == nil {
		t.Errorf("EstimateAncestorBased: want grid error")
	}
	if _, err := EstimateDescendantBased(a, b); err == nil {
		t.Errorf("EstimateDescendantBased: want grid error")
	}
	if _, err := PHJoin(a, b); err == nil {
		t.Errorf("PHJoin: want grid error")
	}
}

func TestEmptyHistogramsEstimateZero(t *testing.T) {
	grid := histogram.MustUniformGrid(6, 100)
	empty := histogram.NewPosition(grid, nil)
	full := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 5, Count: 10}})
	for _, pair := range [][2]*histogram.Position{{empty, full}, {full, empty}, {empty, empty}} {
		got, err := PHJoin(pair[0], pair[1])
		if err != nil {
			t.Fatalf("PHJoin: %v", err)
		}
		if got != 0 {
			t.Errorf("PHJoin with empty operand = %v, want 0", got)
		}
	}
}

func TestGridSize1(t *testing.T) {
	// A 1×1 grid has a single on-diagonal cell; the estimate collapses
	// to count(A)×count(B)/12.
	grid := histogram.MustUniformGrid(1, 100)
	ha := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 0, Count: 6}})
	hb := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 0, Count: 24}})
	got, err := PHJoin(ha, hb)
	if err != nil {
		t.Fatalf("PHJoin: %v", err)
	}
	if got != 6*24.0/12 {
		t.Errorf("1x1 estimate = %v, want %v", got, 6*24.0/12)
	}
}
