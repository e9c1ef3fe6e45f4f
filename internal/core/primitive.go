package core

import (
	"fmt"

	"xmlest/internal/histogram"
)

// The Fig 6 estimation formulas consume region sums of one operand
// histogram. The ancestor-based coefficients take the Fig 9 partial sums
// of the descendant operand from histogram.Regions, for every queried
// cell in one O(g + nnz) sweep; the descendant-based coefficient sums
// the ancestor operand's non-zero cells directly. No g×g plane is built.
// See DESIGN.md, "Sparse cells, CSR coverage and O(nnz) joins".

// ancestorCoefOf returns the Fig 6 ancestor-based multiplicative
// coefficient for ancestor cell (i, j) from the descendant histogram's
// region sums r there and its diagonal cells selfII = H[i][i] and
// selfJJ = H[j][j]: the expected number of descendant-histogram points
// joining with one point in (i, j).
func ancestorCoefOf(r histogram.Region, diagonal bool, selfII, selfJJ float64) float64 {
	if diagonal {
		return r.Self / 12
	}
	return r.Inside +
		r.Down - selfII/2 +
		r.Right - selfJJ/2 +
		r.Self/4
}

// ancestorCoefs calls fn with every query cell of q, in order, and its
// ancestor-based coefficient against the descendant histogram histB.
// The region sums and histB's diagonal live in pooled scratch.
func ancestorCoefs(histB *histogram.Position, q []histogram.Cell, fn func(c histogram.Cell, coef float64)) {
	sc := scratchPool.Get().(*joinScratch)
	g, cells := histB.Grid().Size(), histB.NonZeroCells()
	regions := sc.regionsFor(len(q))
	histogram.Regions(g, cells, q, regions)
	diag := sc.diagFor(g)
	for _, c := range cells {
		if c.I == c.J {
			diag[c.I] = c.Count
		}
	}
	for x, c := range q {
		fn(c, ancestorCoefOf(regions[x], c.I == c.J, diag[c.I], diag[c.J]))
	}
	clear(diag)
	scratchPool.Put(sc)
}

// descendantCoef returns the Fig 6 descendant-based coefficient for
// descendant cell (i, j) against the ancestor histogram's non-zero
// cells: the expected number of ancestor-histogram points joining with
// one point in (i, j). Regions F (same column, above), G (strictly
// up-left) and H (same row, left) — every cell (k, l) with k <= i and
// l >= j but (i, j) itself — count with weight 1, summed directly in
// (k, l) order; the cell itself counts with 1/4 off-diagonal and 1/12
// on-diagonal.
func descendantCoef(anc []histogram.Cell, i, j int) float64 {
	var region, self float64
	for _, c := range anc {
		if c.I > i {
			break
		}
		switch {
		case c.I == i && c.J == j:
			self = c.Count
		case c.J >= j:
			region += c.Count
		}
	}
	selfW := 0.25
	if i == j {
		selfW = 1.0 / 12
	}
	return region + selfW*self
}

// EstimateAncestorBased computes the Fig 6 ancestor-based estimation
// histogram for the pattern P1//P2: cell (i, j) holds the estimated
// number of (ancestor, descendant) pairs whose ancestor falls in cell
// (i, j) of histA. histA and histB must share a grid. Only histA's
// non-zero cells are visited.
func EstimateAncestorBased(histA, histB *histogram.Position) (*histogram.Position, error) {
	if err := checkGrids(histA, histB); err != nil {
		return nil, err
	}
	q := histA.NonZeroCells()
	cells := make([]histogram.Cell, 0, len(q))
	ancestorCoefs(histB, q, func(c histogram.Cell, coef float64) {
		if est := c.Count * coef; est != 0 {
			cells = append(cells, histogram.Cell{I: c.I, J: c.J, Count: est})
		}
	})
	return histogram.NewPosition(histA.Grid(), cells), nil
}

// EstimateDescendantBased computes the Fig 6 descendant-based estimation
// histogram for P1//P2: cell (i, j) holds the estimated number of pairs
// whose descendant falls in cell (i, j) of histB.
func EstimateDescendantBased(histA, histB *histogram.Position) (*histogram.Position, error) {
	if err := checkGrids(histA, histB); err != nil {
		return nil, err
	}
	anc := histA.NonZeroCells()
	return mapCells(histB.Grid(), histB.NonZeroCells(), func(_ int, c histogram.Cell) float64 {
		return c.Count * descendantCoef(anc, c.I, c.J)
	}), nil
}

// AncestorCoefficients returns the per-cell multiplicative coefficients
// derived from a descendant histogram — the pre-computation space-time
// trade-off the paper describes after Fig 9: the coefficients can be
// computed once per histogram and stored (in space comparable to the
// histogram itself), after which any join against that descendant
// reduces to a cell-wise multiply-accumulate.
func AncestorCoefficients(histB *histogram.Position) *histogram.Position {
	g := histB.Grid().Size()
	q := make([]histogram.Cell, 0, g*(g+1)/2)
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			q = append(q, histogram.Cell{I: i, J: j})
		}
	}
	var cells []histogram.Cell
	ancestorCoefs(histB, q, func(c histogram.Cell, coef float64) {
		if coef != 0 {
			cells = append(cells, histogram.Cell{I: c.I, J: c.J, Count: coef})
		}
	})
	return histogram.NewPosition(histB.Grid(), cells)
}

func checkGrids(a, b *histogram.Position) error {
	if !a.Grid().Equal(b.Grid()) {
		return fmt.Errorf("core: operand histograms have different grids (%d vs %d buckets)",
			a.Grid().Size(), b.Grid().Size())
	}
	return nil
}
